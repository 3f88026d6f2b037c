#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rac::util {
namespace {

TEST(Contracts, PassingContractEvaluatesConditionOnceAndContinues) {
  int evaluations = 0;
  RAC_EXPECT((++evaluations, true), "never fails");
  EXPECT_EQ(evaluations, 1);
}

TEST(Contracts, ThrowModeThrowsContractViolationWithContext) {
  try {
    RAC_EXPECT(1 + 1 == 3, "arithmetic is broken");
    FAIL() << "contract did not fire";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("EXPECT failed"), std::string::npos) << what;
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic is broken"), std::string::npos) << what;
    EXPECT_NE(what.find("contracts_test.cpp"), std::string::npos) << what;
  }
}

TEST(Contracts, EnsureAndInvariantCarryTheirKind) {
  EXPECT_THROW(RAC_ENSURE(false, "post"), ContractViolation);
  EXPECT_THROW(RAC_INVARIANT(false, "inv"), ContractViolation);
  try {
    RAC_ENSURE(false, "post");
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("ENSURE failed"),
              std::string::npos);
  }
}

TEST(Contracts, AuditEvaluatesConditionOnlyInAuditBuilds) {
  int evaluations = 0;
  RAC_AUDIT((++evaluations, true), "side effect probe");
  EXPECT_EQ(evaluations, kAuditEnabled ? 1 : 0);
}

TEST(Contracts, AuditFiresOnlyInAuditBuilds) {
  if (kAuditEnabled) {
    EXPECT_THROW(RAC_AUDIT(false, "audit failure"), ContractViolation);
  } else {
    EXPECT_NO_THROW(RAC_AUDIT(false, "audit failure"));
  }
}

}  // namespace
}  // namespace rac::util
