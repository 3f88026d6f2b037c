// Fixture: wall-clock reads. Never compiled; read by analyze_tests.
#include <chrono>
#include <ctime>

long fixture_wall_clock() {
  const auto now = std::chrono::system_clock::now();
  const long stamp = time(nullptr);
  return stamp + std::chrono::duration_cast<std::chrono::seconds>(
                     now.time_since_epoch())
                     .count();
}
