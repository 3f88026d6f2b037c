// Fixture: unseeded randomness. Never compiled; read by analyze_tests.
#include <cstdlib>
#include <random>

int fixture_rand() {
  std::random_device rd;
  srand(42);
  return std::rand() + static_cast<int>(rd());
}
