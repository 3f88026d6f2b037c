// Fixture: raw assert in library code. Never compiled; read by analyze_tests.
#include <cassert>

int fixture_checked_add(int a, int b) {
  assert(a >= 0);
  static_assert(sizeof(int) >= 2, "static_assert must not trip the rule");
  return a + b;
}
