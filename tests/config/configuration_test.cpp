#include "config/configuration.hpp"

#include <gtest/gtest.h>

namespace rac::config {
namespace {

TEST(Configuration, DefaultsMatchCatalog) {
  const Configuration c;
  for (const auto& s : catalog()) {
    EXPECT_EQ(c.value(s.id), s.default_value) << s.name;
  }
}

TEST(Configuration, SetClampsToRange) {
  Configuration c;
  c.set(ParamId::kMaxClients, 10000);
  EXPECT_EQ(c.value(ParamId::kMaxClients), 600);
  c.set(ParamId::kMaxClients, -5);
  EXPECT_EQ(c.value(ParamId::kMaxClients), 50);
}

TEST(Configuration, ConstructorClampsValues) {
  std::array<int, kNumParams> raw{};
  raw.fill(100000);
  const Configuration c(raw);
  for (const auto& s : catalog()) EXPECT_EQ(c.value(s.id), s.max);
}

TEST(Configuration, NormalizedRoundTrip) {
  Configuration c;
  c.set_normalized(ParamId::kMaxClients, 0.0);
  EXPECT_EQ(c.value(ParamId::kMaxClients), 50);
  EXPECT_DOUBLE_EQ(c.normalized(ParamId::kMaxClients), 0.0);
  c.set_normalized(ParamId::kMaxClients, 1.0);
  EXPECT_EQ(c.value(ParamId::kMaxClients), 600);
  EXPECT_DOUBLE_EQ(c.normalized(ParamId::kMaxClients), 1.0);
  c.set_normalized(ParamId::kMaxClients, 0.5);
  EXPECT_EQ(c.value(ParamId::kMaxClients), 325);
}

TEST(Configuration, SetNormalizedClampsInput) {
  Configuration c;
  c.set_normalized(ParamId::kKeepAliveTimeout, 2.5);
  EXPECT_EQ(c.value(ParamId::kKeepAliveTimeout), 21);
  c.set_normalized(ParamId::kKeepAliveTimeout, -1.0);
  EXPECT_EQ(c.value(ParamId::kKeepAliveTimeout), 1);
}

TEST(Configuration, StepMovesByFineStep) {
  Configuration c;
  EXPECT_TRUE(c.step(ParamId::kMaxClients, 1));
  EXPECT_EQ(c.value(ParamId::kMaxClients), 175);
  EXPECT_TRUE(c.step(ParamId::kMaxClients, -2));
  EXPECT_EQ(c.value(ParamId::kMaxClients), 125);
}

TEST(Configuration, StepClampsAtBoundaryAndReportsNoChange) {
  Configuration c;
  c.set(ParamId::kMaxClients, 600);
  EXPECT_FALSE(c.step(ParamId::kMaxClients, 1));
  EXPECT_EQ(c.value(ParamId::kMaxClients), 600);
  c.set(ParamId::kMaxClients, 590);
  // Partial step toward the boundary still changes the value.
  EXPECT_TRUE(c.step(ParamId::kMaxClients, 1));
  EXPECT_EQ(c.value(ParamId::kMaxClients), 600);
}

TEST(Configuration, EqualityAndHash) {
  Configuration a;
  Configuration b;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(ParamId::kMaxThreads, 300);
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Configuration, HashIsStableAcrossRuns) {
  // A fixed function of the values, with no per-process seed.
  const Configuration c;
  EXPECT_EQ(c.hash(), Configuration().hash());
}

TEST(Configuration, NormalizedValuesVectorMatchesPerParam) {
  Configuration c;
  c.set(ParamId::kMinSpareServers, 45);
  const auto z = c.normalized_values();
  for (ParamId id : kAllParams) {
    EXPECT_DOUBLE_EQ(z[index(id)], c.normalized(id));
  }
}

TEST(Configuration, ToStringContainsAllNamesAndValues) {
  const Configuration c;
  const std::string s = c.to_string();
  for (const auto& spec : catalog()) {
    EXPECT_NE(s.find(spec.name), std::string::npos);
  }
  EXPECT_NE(s.find("MaxClients=150"), std::string::npos);
}

TEST(Configuration, CompactFormat) {
  const Configuration c;
  EXPECT_EQ(c.compact(), "150/15/5/15/200/30/5/50");
}

}  // namespace
}  // namespace rac::config
