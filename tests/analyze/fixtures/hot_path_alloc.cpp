// Fixture for the hot-path-alloc rule. Never compiled.
//
// Mentioning new or unordered_map in a comment must not fire, and neither
// must the include below (no '<' after the container name).
#include <unordered_map>

void bad_sites() {
  int* p = new int(7);                              // fires: operator new
  auto u = std::make_unique<int>(7);                // fires: make_unique
  auto s = std::make_shared<int>(7);                // fires: make_shared
  std::unordered_map<int, int> m;                   // fires: node container
  std::map<int, double> tree;                       // fires: node container
  std::list<int> chain;                             // fires: node container
  (void)p; (void)u; (void)s; (void)m; (void)tree; (void)chain;
}

void justified_cold_path() {
  // One-time arena growth outside the event loop.
  auto r = std::make_unique<int>(0);  // rac-analyze: allow(hot-path-alloc) cold path
  (void)r;
}

void look_alikes() {
  int newest = 0;        // 'new' inside an identifier must not fire
  double renew_t = 0.0;  // nor as a suffix
  const char* msg = "allocate with new here";  // string literal stripped
  (void)newest; (void)renew_t; (void)msg;
}
