// Fixture: path-traversing include. Never compiled; read by analyze_tests.
#include "../util/stats.hpp"

int fixture_uses_relative_include() { return 0; }
