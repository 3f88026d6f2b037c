#include "util/contracts.hpp"

#include <sstream>

namespace rac::util::detail {

void contract_fail(const char* kind, const char* expr, const char* file,
                   int line, const char* message) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (message != nullptr && *message != '\0') os << ": " << message;
  throw ContractViolation(os.str());
}

}  // namespace rac::util::detail
