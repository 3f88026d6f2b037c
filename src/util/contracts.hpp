// Contract macros: the project's one way to state runtime invariants.
//
// Library code must not use raw `assert` (compiled out under NDEBUG, so
// release builds drift silently) or ad-hoc prints; `rac-analyze`
// enforces this. Instead:
//
//   RAC_EXPECT(cond, "msg")     -- precondition on the caller
//   RAC_ENSURE(cond, "msg")     -- postcondition on the callee
//   RAC_INVARIANT(cond, "msg")  -- internal consistency
//   RAC_AUDIT(cond, "msg")      -- heavyweight check, compiled out (the
//                                  condition is NOT evaluated) unless the
//                                  build sets -DRAC_AUDIT=ON
//
// The first three always evaluate their condition (they are cheap: one
// compare and a never-taken branch on the hot path) and, on failure,
// always throw ContractViolation naming the kind, the condition, the
// source location and the message. Throwing keeps failures testable and
// lets a caller that owns the process decide what a broken invariant
// costs. Note that a failure inside a `noexcept` function still
// terminates -- by design, such contracts are "fail loudly" either way.
//
// Heavyweight audit *blocks* (e.g. scanning a whole Q-table for NaNs)
// should be gated on `if constexpr (rac::util::kAuditEnabled)` so the
// audit build pays the cost and the default build compiles it away.
#pragma once

#include <stdexcept>
#include <string>

namespace rac::util {

#if defined(RAC_AUDIT_ENABLED)
inline constexpr bool kAuditEnabled = true;
#else
inline constexpr bool kAuditEnabled = false;
#endif

/// Thrown by every failed contract.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

namespace detail {
/// Slow path, shared by every macro.
[[noreturn]] void contract_fail(const char* kind, const char* expr,
                                const char* file, int line,
                                const char* message);
}  // namespace detail

}  // namespace rac::util

#define RAC_CONTRACT_IMPL_(kind, cond, msg)                              \
  do {                                                                   \
    if (!(cond)) [[unlikely]] {                                          \
      ::rac::util::detail::contract_fail(kind, #cond, __FILE__,          \
                                         __LINE__, msg);                 \
    }                                                                    \
  } while (false)

#define RAC_EXPECT(cond, msg) RAC_CONTRACT_IMPL_("EXPECT", cond, msg)
#define RAC_ENSURE(cond, msg) RAC_CONTRACT_IMPL_("ENSURE", cond, msg)
#define RAC_INVARIANT(cond, msg) RAC_CONTRACT_IMPL_("INVARIANT", cond, msg)

#if defined(RAC_AUDIT_ENABLED)
#define RAC_AUDIT(cond, msg) RAC_CONTRACT_IMPL_("AUDIT", cond, msg)
#else
// Compiled out entirely: the condition is not evaluated (audits may be
// arbitrarily expensive), but it still parses, so it cannot rot.
#define RAC_AUDIT(cond, msg)                       \
  do {                                             \
    if constexpr (false) {                         \
      static_cast<void>(cond);                     \
      static_cast<void>(msg);                      \
    }                                              \
  } while (false)
#endif
