// Fixture: exact float comparisons. Never compiled; read by analyze_tests.
bool fixture_is_unit(double x) { return x == 1.0; }

bool fixture_is_nonzero(float y) { return 0.0f != y; }
