// Fixture: backslash line continuations. The // comment below continues
// onto the next physical line, so the std::rand() there is comment text;
// the continued string literal swallows its second line the same way.
// The final std::rand() is the only real finding.
// Never compiled; read by analyze_tests.
int fixture_continued_comment() {
  int x = 0;  // this comment continues onto the next line \
  x = std::rand();
  return x;
}

const char* fixture_continued_string = "literal with a continued \
std::rand() inside the string body";

int fixture_real() {
  return std::rand();
}
