#include "core/library_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/policy_init.hpp"
#include "env/analytic_env.hpp"
#include "util/lineio.hpp"

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
  std::string bad_surface = text;
  const std::size_t surf = bad_surface.find("surface unfitted");
  ASSERT_NE(surf, std::string::npos);
  bad_surface.replace(surf, std::string("surface unfitted").size(),
                      "surface 1 2\nweights 3 0p+0 0p+0 0p+0\n"
                      "means 0p+0\nscales 0p+0");
  std::istringstream surf_is(bad_surface);
  EXPECT_THROW(load_library(surf_is), std::runtime_error);
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
