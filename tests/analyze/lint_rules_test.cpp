// Exercises the direct-read rules (rand, wall-clock) and the per-line
// convention rules against known-bad fixture files (which are never
// compiled), plus the path scoping, suppression, and stripping machinery
// they share with the rest of rac-analyze.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fixtures.hpp"

namespace {

using namespace rac::analyze::testing;

TEST(LintRules, RandFiresOnEveryRandSource) {
  const auto findings = analyze_fixture("rand.cpp", "src/core/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "rand"), 3);  // random_device, srand, rand
  for (const auto& f : findings) EXPECT_EQ(f.rule, "rand");
}

TEST(LintRules, RandExemptInsideRngImplementation) {
  const auto findings = analyze_fixture("rand.cpp", "src/util/rng.cpp");
  EXPECT_EQ(count_rule(findings, "rand"), 0);
}

TEST(LintRules, RandAndWallClockFireAtNamespaceScope) {
  // Static initializers run outside any function body but read the clock
  // and the entropy source all the same.
  const auto findings = analyze_text(
      "src/core/x.cpp",
      "#include <chrono>\n"
      "#include <random>\n"
      "static const auto kBoot = std::chrono::system_clock::now();\n"
      "static const unsigned kSeed = std::random_device{}();\n");
  EXPECT_EQ(count_rule(findings, "wall-clock"), 1) << render(findings);
  EXPECT_EQ(count_rule(findings, "rand"), 1) << render(findings);
  EXPECT_EQ(findings.size(), 2u) << render(findings);
}

TEST(LintRules, MemberCallsAndLookAlikesAreNotRand) {
  const auto findings = analyze_text(
      "src/core/x.cpp",
      "int f(Gen& rng, Gen* obj, Parser& p) {\n"
      "  return rng.rand() + obj->rand() + p.operand(1) + operand(2) +\n"
      "         strand(3) + util::rand(4) + rng.time(0);\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LintRules, WallClockFiresInSimulatedSubsystems) {
  for (const std::string dir :
       {"src/core/", "src/rl/", "src/env/", "src/tiersim/",
        "src/queueing/"}) {
    const auto findings =
        analyze_fixture("wall_clock.cpp", dir + "fixture.cpp");
    EXPECT_EQ(count_rule(findings, "wall-clock"), 2) << dir;
  }
}

TEST(LintRules, WallClockIgnoredOutsideSimulatedSubsystems) {
  const auto findings =
      analyze_fixture("wall_clock.cpp", "src/util/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "wall-clock"), 0);
}

TEST(LintRules, DefaultRegistryFiresOutsideObs) {
  const auto findings =
      analyze_fixture("default_registry.cpp", "src/core/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "default-registry"), 1);
}

TEST(LintRules, DefaultRegistryExemptInsideObs) {
  const auto findings =
      analyze_fixture("default_registry.cpp", "src/obs/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "default-registry"), 0);
}

TEST(LintRules, RawAssertFiresOnCallAndInclude) {
  const auto findings =
      analyze_fixture("raw_assert.cpp", "src/rl/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "raw-assert"), 2);
}

TEST(LintRules, StaticAssertDoesNotTripRawAssert) {
  const auto findings = analyze_text(
      "src/rl/fixture.cpp", "static_assert(1 + 1 == 2, \"arith\");\n");
  EXPECT_EQ(count_rule(findings, "raw-assert"), 0);
}

TEST(LintRules, IostreamFiresInLibraryCode) {
  const auto findings =
      analyze_fixture("iostream.cpp", "src/env/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "iostream"), 2);  // cout, cerr
}

TEST(LintRules, IostreamExemptInLogImplementation) {
  const auto findings = analyze_fixture("iostream.cpp", "src/util/log.cpp");
  EXPECT_EQ(count_rule(findings, "iostream"), 0);
}

TEST(LintRules, PragmaOnceMissingInHeader) {
  const auto findings =
      analyze_fixture("missing_pragma_once.hpp", "src/util/fixture.hpp");
  ASSERT_EQ(count_rule(findings, "pragma-once"), 1);
  // Reported at the first code line, after the leading comment.
  EXPECT_EQ(findings.front().line, 3);
}

TEST(LintRules, PragmaOnceNotRequiredInSourceFiles) {
  const auto findings =
      analyze_fixture("missing_pragma_once.hpp", "src/util/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "pragma-once"), 0);
}

TEST(LintRules, PragmaOncePresentHeaderIsClean) {
  const auto findings = analyze_text(
      "src/util/fixture.hpp",
      "// A well-formed header.\n#pragma once\n\nnamespace rac {}\n");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LintRules, IncludeHygieneFiresOnPathTraversal) {
  const auto findings =
      analyze_fixture("include_hygiene.cpp", "src/core/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "include-hygiene"), 1);
}

TEST(LintRules, LocaleIoFiresOnParsersAndFloatFormats) {
  const auto findings =
      analyze_fixture("locale_io.cpp", "src/rl/fixture.cpp");
  // stod, strtod, atof, setlocale (stripped-line pattern) + snprintf "%a",
  // sscanf "%lf" (raw-line pattern).
  EXPECT_EQ(count_rule(findings, "locale-io"), 6);
}

TEST(LintRules, LocaleIoIgnoresNonFloatConversions) {
  const auto findings = analyze_text(
      "src/obs/fixture.cpp",
      "void f(char* b, unsigned c) {"
      " std::snprintf(b, 8, \"\\\\u%04x\", c); }\n");
  EXPECT_EQ(count_rule(findings, "locale-io"), 0);
}

TEST(LintRules, UncheckedMeasureFiresOnDotAndArrowCalls) {
  const auto findings =
      analyze_fixture("unchecked_measure.cpp", "src/core/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "unchecked-measure"), 2);  // . and ->
}

TEST(LintRules, UncheckedMeasureScopedToCoreOnly) {
  const auto findings =
      analyze_fixture("unchecked_measure.cpp", "src/rl/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "unchecked-measure"), 0);
}

TEST(LintRules, MeasureIntervalDoesNotTripUncheckedMeasure) {
  const auto findings = analyze_text(
      "src/core/fixture.cpp",
      "void f(Env& e, const Config& c) {"
      " auto m = e.measure_interval(c); }\n");
  EXPECT_EQ(count_rule(findings, "unchecked-measure"), 0);
}

TEST(LintRules, UntrackedTimerFiresInSrcOutsideObs) {
  const auto findings =
      analyze_fixture("untracked_timer.cpp", "src/core/fixture.cpp");
  // steady_clock + high_resolution_clock fire; the suppressed read does not.
  EXPECT_EQ(count_rule(findings, "untracked-timer"), 2);
}

TEST(LintRules, UntrackedTimerExemptInsideObsAndOutsideSrc) {
  EXPECT_EQ(count_rule(analyze_fixture("untracked_timer.cpp",
                                       "src/obs/fixture.cpp"),
                       "untracked-timer"),
            0);
  EXPECT_EQ(count_rule(analyze_fixture("untracked_timer.cpp",
                                       "bench/fixture.cpp"),
                       "untracked-timer"),
            0);
}

TEST(LintRules, HotPathAllocFiresInHotSubsystems) {
  for (const std::string dir :
       {"src/queueing/", "src/tiersim/", "src/rl/"}) {
    const auto findings =
        analyze_fixture("hot_path_alloc.cpp", dir + "fixture.cpp");
    // new, make_unique, make_shared, unordered_map, std::map, std::list;
    // the suppressed make_unique and the look-alikes do not fire.
    EXPECT_EQ(count_rule(findings, "hot-path-alloc"), 6) << dir;
  }
}

TEST(LintRules, HotPathAllocIgnoredOutsideHotSubsystems) {
  for (const std::string dir : {"src/core/", "src/util/", "src/env/"}) {
    const auto findings =
        analyze_fixture("hot_path_alloc.cpp", dir + "fixture.cpp");
    EXPECT_EQ(count_rule(findings, "hot-path-alloc"), 0) << dir;
  }
}

TEST(LintRules, HotPathAllocIgnoresIncludesAndIdentifiers) {
  const auto findings = analyze_text(
      "src/rl/fixture.cpp",
      "#include <unordered_map>\n"
      "#include <list>\n"
      "int renew_count(int newest) { return newest + 1; }\n");
  EXPECT_EQ(count_rule(findings, "hot-path-alloc"), 0);
}

TEST(LintRules, FloatEqFiresOnBothOperandOrders) {
  const auto findings =
      analyze_fixture("float_eq.cpp", "src/queueing/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "float-eq"), 2);
}

TEST(LintRules, FpEnvFiresOnEveryWriterInSrc) {
  for (const std::string path :
       {"src/core/fixture.cpp", "src/util/fixture.cpp",
        "src/queueing/fixture.cpp", "src/queueing/mva_fast.cpp"}) {
    const auto findings = analyze_fixture("fp_env.cpp", path);
    // _mm_setcsr, both _MM_SET_*_MODE macros, fesetenv, feupdateenv,
    // fesetround; the readers, look-alikes, comment and string do not.
    EXPECT_EQ(count_rule(findings, "fp-env"), 6) << path;
    EXPECT_EQ(findings.size(), 6u) << path << "\n" << render(findings);
  }
}

TEST(LintRules, FpEnvExemptOnlyInTheMvaRecursionAndOutsideSrc) {
  for (const std::string path :
       {"src/queueing/mva.cpp", "tests/queueing/fixture.cpp",
        "bench/fixture.cpp", "tools/bench/fixture.cpp"}) {
    EXPECT_EQ(count_rule(analyze_fixture("fp_env.cpp", path), "fp-env"), 0)
        << path;
  }
}

TEST(LintSuppressions, SameLineAllowSilencesOnlyTheNamedRule) {
  const auto findings =
      analyze_fixture("suppressed.cpp", "src/util/fixture.cpp");
  // The allow(float-eq) line is silenced; the allow(rand) line is not --
  // and since allow(rand) suppresses nothing, it is itself reported.
  ASSERT_EQ(count_rule(findings, "float-eq"), 1);
  EXPECT_EQ(findings.front().line, 7);
  ASSERT_EQ(count_rule(findings, "unused-suppression"), 1);
  EXPECT_EQ(findings.back().line, 7);
}

TEST(LintSuppressions, UsedSuppressionIsNotReportedAsUnused) {
  const auto findings = analyze_text(
      "src/util/fixture.cpp",
      "bool f(double x) { return x == 0.0; }"
      "  // rac-analyze: allow(float-eq) exactness intended\n");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LintSuppressions, StaleAllowIsUnusedSuppression) {
  const auto findings = analyze_text(
      "src/util/fixture.cpp",
      "int f();  // rac-analyze: allow(rand) nothing to suppress here\n");
  ASSERT_EQ(count_rule(findings, "unused-suppression"), 1);
  EXPECT_EQ(findings.front().line, 1);
}

TEST(LintSuppressions, PlaceholderAllowInDocCommentsIsIgnored) {
  // Documentation like `allow(<rule>)` or allow(RULE) is not a
  // suppression attempt: no unused-suppression noise.
  const auto findings = analyze_text(
      "src/util/fixture.cpp",
      "// The syntax is `// rac-analyze: allow(<rule>)` on the finding"
      " line.\n"
      "int f();\n");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LintSuppressions, AllowUnusedSuppressionExemptsTheLine) {
  const auto findings = analyze_text(
      "src/util/fixture.cpp",
      "int f();  // rac-analyze: allow(rand, unused-suppression)"
      " intentionally pre-placed\n");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LintSuppressions, CommaListAllowsMultipleRules) {
  const auto findings = analyze_text(
      "src/core/fixture.cpp",
      "bool f(double x) { return x == 1.0 && std::rand() > 0; }"
      "  // rac-analyze: allow(float-eq, rand) fixture justification\n");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LintSuppressions, AllowOnAdjacentLineDoesNotSuppress) {
  const auto findings = analyze_text(
      "src/core/fixture.cpp",
      "// rac-analyze: allow(float-eq) on the wrong line\n"
      "bool f(double x) { return x == 1.0; }\n");
  EXPECT_EQ(count_rule(findings, "float-eq"), 1);
}

TEST(LintStripping, CommentsAndStringsNeverFire) {
  const auto findings =
      analyze_fixture("strings_and_comments.cpp", "src/core/fixture.cpp");
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(LintStripping, RawStringContentsNeverFireAndCodeAfterThemDoes) {
  const auto findings =
      analyze_fixture("raw_string.cpp", "src/core/fixture.cpp");
  // All rand/cout text inside the raw strings is data; the single real
  // std::rand() after the quote-bearing one-line raw string fires.
  EXPECT_EQ(count_rule(findings, "iostream"), 0) << render(findings);
  ASSERT_EQ(count_rule(findings, "rand"), 1) << render(findings);
  EXPECT_EQ(findings.front().line, 17);
}

TEST(LintStripping, LineContinuationsExtendCommentsAndStrings) {
  const auto findings =
      analyze_fixture("line_continuation.cpp", "src/core/fixture.cpp");
  // The rand() on the comment-continued and string-continued lines is
  // not code; only the last function's call is.
  ASSERT_EQ(count_rule(findings, "rand"), 1) << render(findings);
  EXPECT_EQ(findings.front().line, 16);
}

TEST(LintScoping, CliTreesAreExemptFromIostreamAndDefaultRegistry) {
  for (const std::string path :
       {"tools/bench/fixture.cpp", "bench/fixture.cpp",
        "examples/fixture.cpp"}) {
    EXPECT_EQ(count_rule(analyze_fixture("iostream.cpp", path), "iostream"),
              0)
        << path;
    EXPECT_EQ(count_rule(analyze_fixture("default_registry.cpp", path),
                         "default-registry"),
              0)
        << path;
  }
}

TEST(LintRuleTable, IdsAreUniqueAndFindingsReferToThem) {
  std::set<std::string_view> ids;
  for (const auto& rule : rac::analyze::rules()) ids.insert(rule.id);
  EXPECT_EQ(ids.size(), rac::analyze::rules().size());
  for (const char* id :
       {"rand", "wall-clock", "default-registry", "raw-assert", "iostream",
        "pragma-once", "include-hygiene", "locale-io", "untracked-timer",
        "hot-path-alloc", "float-eq", "unchecked-measure", "fp-env"}) {
    EXPECT_TRUE(ids.count(id)) << id;
  }
  for (const std::string fixture :
       {"rand.cpp", "wall_clock.cpp", "default_registry.cpp",
        "raw_assert.cpp", "iostream.cpp", "include_hygiene.cpp",
        "float_eq.cpp", "locale_io.cpp", "suppressed.cpp",
        "unchecked_measure.cpp", "untracked_timer.cpp",
        "hot_path_alloc.cpp", "fp_env.cpp"}) {
    for (const auto& f : analyze_fixture(fixture, "src/core/fixture.cpp")) {
      EXPECT_TRUE(ids.count(f.rule)) << fixture << " -> " << f.rule;
    }
  }
}

TEST(LintReport, JsonCarriesCountAndEscapes) {
  const std::vector<rac::analyze::Finding> findings = {
      {"src/a\"b.cpp", 7, "float-eq", "line1\nline2"}};
  const std::string json = rac::analyze::to_json(findings);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("src/a\\\"b.cpp"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
}

TEST(LintTree, MissingSubdirThrows) {
  // A missing entry throws even after one that loads.
  EXPECT_THROW(rac::analyze::load_tree(RAC_ANALYZE_FIXTURE_DIR,
                                       {"rand.cpp", "no_such_subdir"}),
               std::runtime_error);
}

}  // namespace
