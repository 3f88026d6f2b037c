#include "core/library_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy_init.hpp"
#include "env/analytic_env.hpp"
#include "util/lineio.hpp"
#include "util/regression.hpp"

namespace rac::core {
namespace {

using env::AnalyticEnv;
using env::AnalyticEnvOptions;
using env::SystemContext;
using env::VmLevel;
using workload::MixType;

InitialPolicyLibrary trained_library() {
  PolicyInitOptions init;
  init.offline_td.max_sweeps = 60;
  AnalyticEnvOptions env_options;
  env_options.noise_sigma = 0.0;
  InitialPolicyLibrary library;
  for (const SystemContext& context :
       {SystemContext{MixType::kShopping, VmLevel::kLevel1},
        SystemContext{MixType::kOrdering, VmLevel::kLevel3}}) {
    AnalyticEnv env(context, env_options);
    library.add(learn_initial_policy(env, init));
  }
  return library;
}

// The text of a one-policy library whose surface block has these parts. The
// defaults are a valid degree-2 surface over the parameters: intercept
// log(100 ms), every other weight 0, means and scales 0.5.
struct SurfaceParts {
  std::uint64_t dim = config::kNumParams;
  std::vector<double> weights = std::vector<double>(45, 0.0);
  std::vector<double> means = std::vector<double>(config::kNumParams, 0.5);
  std::vector<double> scales = std::vector<double>(config::kNumParams, 0.5);
};

std::string library_text(const SurfaceParts& parts) {
  InitialPolicyLibrary library;
  InitialPolicy policy;
  policy.context = {MixType::kShopping, VmLevel::kLevel1};
  library.add(policy);
  std::stringstream stream;
  save_library(stream, library);
  std::string text = stream.str();
  std::ostringstream surface;
  surface << "surface " << util::format_u64(parts.dim) << " 2\nweights "
          << util::format_u64(parts.weights.size());
  for (double w : parts.weights) surface << ' ' << util::format_double(w);
  surface << "\nmeans";
  for (double m : parts.means) surface << ' ' << util::format_double(m);
  surface << "\nscales";
  for (double v : parts.scales) surface << ' ' << util::format_double(v);
  const std::string unfitted = "surface unfitted";
  text.replace(text.find(unfitted), unfitted.size(), surface.str());
  return text;
}

SurfaceParts valid_parts() {
  SurfaceParts parts;
  parts.weights[0] = std::log(100.0);
  return parts;
}

TEST(LibraryIo, RoundTripIsExactlyEqualPolicyByPolicy) {
  const InitialPolicyLibrary original = trained_library();
  std::stringstream stream;
  save_library(stream, original);
  const InitialPolicyLibrary loaded = load_library(stream);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(exactly_equal(loaded.at(i), original.at(i))) << i;
  }
}

TEST(LibraryIo, OutputIsByteStable) {
  const InitialPolicyLibrary original = trained_library();
  std::stringstream first;
  save_library(first, original);
  std::stringstream reload(first.str());
  const InitialPolicyLibrary loaded = load_library(reload);
  std::stringstream second;
  save_library(second, loaded);
  EXPECT_EQ(second.str(), first.str());
}

TEST(LibraryIo, UnfittedSurfaceAndEmptyLibraryRoundTrip) {
  InitialPolicyLibrary with_unfitted;
  InitialPolicy bare;
  bare.context = {MixType::kBrowsing, VmLevel::kLevel2};
  with_unfitted.add(bare);  // default policy: unfitted surface, empty table
  std::stringstream stream;
  save_library(stream, with_unfitted);
  const InitialPolicyLibrary loaded = load_library(stream);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_FALSE(loaded.at(0).surface.fitted());
  EXPECT_TRUE(exactly_equal(loaded.at(0), with_unfitted.at(0)));

  const InitialPolicyLibrary empty;
  std::stringstream empty_stream;
  save_library(empty_stream, empty);
  EXPECT_EQ(load_library(empty_stream).size(), 0u);
}

TEST(LibraryIo, RejectsForeignMagicVersionAndDisorder) {
  std::istringstream foreign("something-else v1\n");
  EXPECT_THROW(load_library(foreign), std::runtime_error);
  std::istringstream unsupported("rac-policy-library v7\npolicies 0\nend\n");
  EXPECT_THROW(load_library(unsupported), std::runtime_error);

  // Policy indices must be ordered 0..n-1.
  InitialPolicyLibrary library;
  InitialPolicy policy;
  policy.context = {MixType::kShopping, VmLevel::kLevel1};
  library.add(policy);
  std::stringstream stream;
  save_library(stream, library);
  std::string text = stream.str();
  const std::size_t pos = text.find("policy 0\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "policy 1\n");
  std::istringstream disordered(text);
  EXPECT_THROW(load_library(disordered), std::runtime_error);
}

TEST(LibraryIo, RejectsUnknownContextAndBadSurface) {
  InitialPolicyLibrary library;
  InitialPolicy policy;
  policy.context = {MixType::kShopping, VmLevel::kLevel1};
  library.add(policy);
  std::stringstream stream;
  save_library(stream, library);
  const std::string text = stream.str();

  std::string bad_context = text;
  const std::size_t ctx = bad_context.find("context shopping/Level-1");
  ASSERT_NE(ctx, std::string::npos);
  bad_context.replace(ctx, std::string("context shopping/Level-1").size(),
                      "context surfing/Level-1\n");
  std::istringstream ctx_is(bad_context);
  EXPECT_THROW(load_library(ctx_is), std::runtime_error);

  // A fitted surface whose invariants from_parts rejects (zero scale).
  SurfaceParts zero_scale = valid_parts();
  zero_scale.scales[2] = 0.0;
  std::istringstream surf_is(library_text(zero_scale));
  EXPECT_THROW(load_library(surf_is), std::runtime_error);
}

TEST(LibraryIo, AcceptsAValidHandWrittenSurface) {
  std::istringstream is(library_text(valid_parts()));
  const InitialPolicyLibrary loaded = load_library(is);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.at(0).predict_response_ms(config::Configuration{}),
                   100.0);
}

// A surface over another number of inputs loaded, and its first prediction
// then threw std::invalid_argument inside the agent.
TEST(LibraryIo, RejectsASurfaceOverAnotherNumberOfInputs) {
  for (const std::uint64_t dim : {std::uint64_t{2}, std::uint64_t{9}}) {
    SCOPED_TRACE(dim);
    SurfaceParts parts = valid_parts();
    parts.dim = dim;
    parts.weights.assign(1 + 2 * dim + dim * (dim - 1) / 2, 0.0);
    parts.means.assign(dim, 0.5);
    parts.scales.assign(dim, 0.5);
    std::istringstream is(library_text(parts));
    EXPECT_THROW(load_library(is), std::runtime_error);
  }
}

TEST(LibraryIo, RejectsNonFiniteSurfaceParts) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    for (int field = 0; field < 3; ++field) {
      SCOPED_TRACE(field);
      SurfaceParts parts = valid_parts();
      (field == 0 ? parts.weights[3]
                  : field == 1 ? parts.means[5] : parts.scales[7]) = bad;
      std::istringstream is(library_text(parts));
      EXPECT_THROW(load_library(is), std::runtime_error);
    }
  }
}

// Finite parts can still overflow into a NaN prediction: a mean of DBL_MAX
// standardizes an input to -inf, and huge weights of opposite sign overflow
// to opposite infinities; either way z_0 and z_0^2 then sum to inf - inf.
TEST(LibraryIo, RejectsASurfaceWhosePredictionsOverflow) {
  constexpr double kMax = std::numeric_limits<double>::max();
  SurfaceParts huge_mean = valid_parts();
  huge_mean.means[0] = kMax;
  huge_mean.weights[1] = 1.0;                       // z_0
  huge_mean.weights[1 + config::kNumParams] = 1.0;  // z_0^2
  SurfaceParts huge_weights = valid_parts();
  huge_weights.scales[0] = 0.25;  // z_0 = -2 at the lowest MaxClients
  huge_weights.weights[1] = -kMax;
  huge_weights.weights[1 + config::kNumParams] = -kMax;
  config::Configuration lowest;
  lowest.set(config::ParamId::kMaxClients, 50);
  for (const SurfaceParts& parts : {huge_mean, huge_weights}) {
    // The premise: the surface the parts describe predicts NaN.
    const util::QuadraticSurface surface = util::QuadraticSurface::from_parts(
        util::LinearModel(parts.weights), parts.dim, 2, parts.means,
        parts.scales);
    EXPECT_TRUE(std::isnan(surface.predict(lowest.normalized_values())));
    std::istringstream is(library_text(parts));
    EXPECT_THROW(load_library(is), std::runtime_error);
  }
}

// Surface counts are unchecked input. A count far past the values present
// must fail as malformed input, not size an allocation (std::bad_alloc,
// std::length_error).
TEST(LibraryIo, HugeSurfaceCountsAreMalformedInputNotAllocations) {
  InitialPolicyLibrary library;
  InitialPolicy policy;
  policy.context = {MixType::kShopping, VmLevel::kLevel1};
  library.add(policy);
  std::stringstream stream;
  save_library(stream, library);
  const std::string text = stream.str();
  const std::string unfitted = "surface unfitted";
  const std::size_t surf = text.find(unfitted);
  ASSERT_NE(surf, std::string::npos);
  for (const std::string count : {"1000000000000", "18446744073709551615"}) {
    SCOPED_TRACE(count);
    for (const std::string& surface :
         {"surface " + count + " 2\nweights 3 0p+0 0p+0 0p+0\n"
                               "means 0p+0\nscales 1p+0",
          "surface 1 2\nweights " + count + " 0p+0 0p+0 0p+0\n"
                                            "means 0p+0\nscales 1p+0"}) {
      std::string bad = text;
      bad.replace(surf, unfitted.size(), surface);
      std::istringstream is(bad);
      EXPECT_THROW(load_library(is), std::runtime_error) << surface;
    }
  }
}

// A policy's fingerprint names the base an agent's checkpointed Q-rows
// overlay. A saved and reloaded library holds its table rows in key order,
// a trained one in first-touch order; the fingerprints agree. A changed
// context, Q value, default or surface weight moves it.
TEST(LibraryFingerprint, IgnoresRowOrderAndCoversContextTableAndSurface) {
  const InitialPolicyLibrary library = trained_library();
  ASSERT_NE(library.fingerprint(0), library.fingerprint(1));
  std::stringstream stream;
  save_library(stream, library);
  const InitialPolicyLibrary loaded = load_library(stream);
  ASSERT_NE(loaded.at(0).table.states(), library.at(0).table.states());
  for (std::size_t i = 0; i < library.size(); ++i) {
    EXPECT_EQ(loaded.fingerprint(i), library.fingerprint(i)) << i;
  }
  EXPECT_EQ(library.find_fingerprint(library.fingerprint(1)), 1u);

  const auto fingerprint_of = [](InitialPolicy policy) {
    InitialPolicyLibrary one;
    one.add(std::move(policy));
    return one.fingerprint(0);
  };
  const InitialPolicy& base = library.at(0);
  EXPECT_EQ(fingerprint_of(base), library.fingerprint(0));
  // An overlay with no rows of its own is flattened to the same policy.
  InitialPolicy overlay = base;
  overlay.table.rebase(library.shared_table(0));
  EXPECT_EQ(fingerprint_of(overlay), library.fingerprint(0));

  InitialPolicy context = base;
  context.context = {MixType::kBrowsing, VmLevel::kLevel2};
  InitialPolicy q_value = base;
  const config::Configuration state = q_value.table.states()[5];
  q_value.table.set_q(state, config::Action(1),
                      q_value.table.q(state, config::Action(1)) * 0.5);
  InitialPolicy default_q = base;
  default_q.table.set_default_q(base.table.default_q() + 1.0);
  InitialPolicy weight = base;
  const util::QuadraticSurface& surface = base.surface.regression();
  std::vector<double> weights(surface.model().weights().begin(),
                              surface.model().weights().end());
  weights.back() = -weights.back() + 1e-12;
  weight.surface = TabulatedSurface(util::QuadraticSurface::from_parts(
      util::LinearModel(std::move(weights)), surface.dim(),
      surface.per_dim_degree(),
      std::vector<double>(surface.means().begin(), surface.means().end()),
      std::vector<double>(surface.scales().begin(), surface.scales().end())));
  for (const InitialPolicy* changed : {&context, &q_value, &default_q,
                                       &weight}) {
    EXPECT_NE(fingerprint_of(*changed), library.fingerprint(0));
  }
}

TEST(LibraryIo, FileRoundTripAndTrailingGarbageRejection) {
  InitialPolicyLibrary library;
  InitialPolicy policy;
  policy.context = {MixType::kOrdering, VmLevel::kLevel2};
  library.add(policy);
  const std::string path = ::testing::TempDir() + "/rac_library_test.rac";
  save_library_file(path, library);
  const InitialPolicyLibrary loaded = load_library_file(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(exactly_equal(loaded.at(0), library.at(0)));

  {
    std::ofstream os(path, std::ios::app);
    os << "garbage\n";
  }
  EXPECT_THROW(load_library_file(path), std::runtime_error);
  std::remove(path.c_str());

  EXPECT_THROW(load_library_file("/nonexistent/dir/library.rac"),
               std::ios_base::failure);
}

}  // namespace
}  // namespace rac::core
