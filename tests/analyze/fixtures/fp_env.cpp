// Fixture: writes to the thread's floating-point environment. Never
// compiled; read by analyze_tests.
#include <cfenv>
#include <pmmintrin.h>

void fixture_fp_env_writers(const std::fenv_t* env) {
  _mm_setcsr(_mm_getcsr() | 0x8040);
  _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);
  _MM_SET_DENORMALS_ZERO_MODE(_MM_DENORMALS_ZERO_ON);
  std::fesetenv(env);
  std::feupdateenv(env);
  std::fesetround(FE_TOWARDZERO);
}

// Reads, look-alikes, comments and strings do not fire: _mm_setcsr(0).
int fixture_fp_env_readers(std::fenv_t* env) {
  const char* text = "fesetround(FE_UPWARD)";
  const unsigned csr = _mm_getcsr() + _MM_GET_FLUSH_ZERO_MODE();
  return std::fegetenv(env) + std::fegetround() + my_fesetround_count +
         static_cast<int>(csr) + text[0];
}
