// Fixture: locale-sensitive numeric I/O. Never compiled; read by analyze_tests.
// A comment mentioning std::stod or printf "%a" must not fire.
double fixture_stod(const char* s) { return std::stod(s); }

double fixture_strtod(const char* s) { return strtod(s, nullptr); }

double fixture_atof(const char* s) { return atof(s); }

void fixture_setlocale() { setlocale(LC_ALL, "C"); }

void fixture_print(char* buf, unsigned n, double v) {
  snprintf(buf, n, "%a", v);
}

void fixture_scan(const char* s, double* v) { sscanf(s, "%lf", v); }

void fixture_hex_is_fine(char* buf, unsigned n, unsigned c) {
  snprintf(buf, n, "\\u%04x", c);
}
