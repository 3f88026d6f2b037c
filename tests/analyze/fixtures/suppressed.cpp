// Fixture: suppression semantics. Never compiled; read by analyze_tests.
bool fixture_exact_zero(double x) {
  return x == 0.0;  // rac-analyze: allow(float-eq) exactness is the point here
}

bool fixture_wrong_rule(double x) {
  return x == 0.0;  // rac-analyze: allow(rand) names the wrong rule, still fires
}
