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
// compare and a never-taken branch on the hot path). What happens on
// failure is a process-wide runtime choice:
//
//   ContractMode::kThrow  (default) -- throw ContractViolation
//   ContractMode::kAbort            -- log the failure, std::abort()
//   ContractMode::kLog              -- log the failure, continue
//
// kThrow keeps failures testable and recoverable; kAbort is what a
// production deployment running under a supervisor wants (a core dump at
// the first bad state beats a poisoned Q-table); kLog exists for
// best-effort data-gathering runs. Note that a kThrow failure inside a
// `noexcept` function still terminates -- by design, such contracts are
// "fail loudly" either way.
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

enum class ContractMode { kThrow, kAbort, kLog };

/// Thrown on contract failure in ContractMode::kThrow.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// Process-wide failure mode (atomic; safe to flip from tests).
void set_contract_mode(ContractMode mode) noexcept;
ContractMode contract_mode() noexcept;

/// RAII helper for tests: swap the mode, restore on scope exit.
class ScopedContractMode {
 public:
  explicit ScopedContractMode(ContractMode mode) noexcept
      : previous_(contract_mode()) {
    set_contract_mode(mode);
  }
  ~ScopedContractMode() { set_contract_mode(previous_); }
  ScopedContractMode(const ScopedContractMode&) = delete;
  ScopedContractMode& operator=(const ScopedContractMode&) = delete;

 private:
  ContractMode previous_;
};

namespace detail {
/// Slow path, shared by every macro. Returns only in ContractMode::kLog.
void contract_fail(const char* kind, const char* expr, const char* file,
                   int line, const char* message);
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
