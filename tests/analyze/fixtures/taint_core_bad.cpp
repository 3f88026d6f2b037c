// A reproducible subsystem reaching the wall clock and ambient
// randomness through the util wrappers in taint_util_bad.cpp. No line
// here reads a clock or rand() directly, so only the reachability rules
// can see it. Never compiled.
namespace rac::core {

long decide_epoch() {
  return util::stamp();  // clock-reachability (stamp -> now_ms -> system_clock)
}

int jitter() {
  return util::ambient_draw();  // rand-reachability
}

}  // namespace rac::core
