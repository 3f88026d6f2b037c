// Fixture: direct Environment::measure() calls in the online
// management loop. Never compiled; read by analyze_tests.
void probe(Env& env, Env* remote, const Config& c) {
  auto a = env.measure(c);      // fires: dot call
  auto b = remote->measure(c);  // fires: arrow call
  auto ok = env.measure_interval(c);  // clean: the checked API
  auto boot = env.measure(c);  // rac-analyze: allow(unchecked-measure) probe
}
