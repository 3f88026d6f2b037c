// Fixture: raw string literal stripping. Everything inside the raw
// strings is data -- the rand/cout text there must never fire -- and the
// one-line raw string containing a lone quote must not desynchronize the
// stripper: the std::rand() after it is the only real finding.
// Never compiled; read by analyze_tests.
#include <string>

const char* fixture_raw = R"(calls std::rand() and std::cout << "x")";

const char* fixture_raw_delim = R"delim(
  more std::rand() inside a multi-line raw string, with a quote " and
  a fake close )" that a naive stripper would treat as the end
)delim";

int fixture_after_raw() {
  std::string s = R"(")";
  return std::rand();  // the finding a quote-counting stripper loses
}
