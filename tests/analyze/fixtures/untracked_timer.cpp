// Fixture: raw clock reads that bypass the profiler. Never compiled;
// read by analyze_tests.
#include <chrono>

double fixture_untracked_timing() {
  const auto start = std::chrono::steady_clock::now();
  const auto mid = std::chrono::high_resolution_clock::now();
  const auto end =
      std::chrono::steady_clock::now();  // rac-analyze: allow(untracked-timer)
  return std::chrono::duration<double>(end - mid).count() +
         std::chrono::duration<double>(mid - start).count();
}
