// Fixture: direct console I/O. Never compiled; read by analyze_tests.
#include <iostream>

void fixture_report(int value) {
  std::cout << "value=" << value << "\n";
  if (value < 0) std::cerr << "negative\n";
}
