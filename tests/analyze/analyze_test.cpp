// Exercises every rac-analyze rule against seeded-bug fixtures (never
// compiled) and their clean twins, plus path scoping, suppressions, and
// the manifest validation. The clean-tree guarantee for the real src/ is
// a separate ctest entry (`rac_analyze`) running the binary itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fixtures.hpp"

namespace {

using rac::analyze::Finding;
using rac::analyze::Manifest;
using rac::analyze::SourceFile;
using namespace rac::analyze::testing;

// --- unordered-iter -------------------------------------------------------

TEST(UnorderedIter, FiresOnAccumulateLastWinsAndAppend) {
  const auto findings =
      analyze_fixture("unordered_iter_bad.cpp", "src/rl/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 3) << render(findings);
}

TEST(UnorderedIter, SilentOnOrderIndependentTwin) {
  const auto findings =
      analyze_fixture("unordered_iter_good.cpp", "src/rl/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 0) << render(findings);
}

TEST(UnorderedIter, ScopedToSrcAndBenchOnly) {
  // The same seeded bugs under tools/ are CLI convenience code: exempt.
  const auto findings =
      analyze_fixture("unordered_iter_bad.cpp", "tools/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 0) << render(findings);
  const auto bench =
      analyze_fixture("unordered_iter_bad.cpp", "bench/fixture.cpp");
  EXPECT_EQ(count_rule(bench, "unordered-iter"), 3) << render(bench);
}

TEST(UnorderedIter, ReconstructsTheRetrainSerializationBug) {
  const auto findings =
      analyze_fixture("retrain_order_bad.cpp", "src/rl/qtable.cpp");
  ASSERT_EQ(count_rule(findings, "unordered-iter"), 1) << render(findings);
  EXPECT_NE(findings.front().message.find("hash-table iteration order"),
            std::string::npos);
}

TEST(UnorderedIter, SilentOnTheCanonicalSortedFix) {
  const auto findings =
      analyze_fixture("retrain_order_good.cpp", "src/rl/qtable.cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 0) << render(findings);
}

// --- clock-reachability / rand-reachability -------------------------------

TEST(Reachability, FlagsWrappedClockAndRandAcrossFiles) {
  const auto findings = rac::analyze::analyze_sources(
      {{"src/core/agent.cpp", read_fixture("taint_core_bad.cpp")},
       {"src/util/timing.cpp", read_fixture("taint_util_bad.cpp")}},
      nullptr);
  ASSERT_EQ(count_rule(findings, "clock-reachability"), 1)
      << render(findings);
  ASSERT_EQ(count_rule(findings, "rand-reachability"), 1)
      << render(findings);
  for (const auto& f : findings) {
    // The wrapper's own std::rand() is a direct `rand` finding in util;
    // reachability is reported only at the reproducible call sites.
    if (f.rule != "clock-reachability" && f.rule != "rand-reachability") {
      continue;
    }
    EXPECT_EQ(f.file, "src/core/agent.cpp");
    if (f.rule == "clock-reachability") {
      // The witness chain names the depth-2 wrapper path.
      EXPECT_NE(f.message.find("now_ms"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("system_clock"), std::string::npos)
          << f.message;
    }
  }
}

TEST(Reachability, SilentWhenTimeAndRandomnessAreInjected) {
  const auto findings = rac::analyze::analyze_sources(
      {{"src/core/agent.cpp", read_fixture("taint_core_good.cpp")},
       {"src/util/rng.cpp", read_fixture("taint_util_good.cpp")}},
      nullptr);
  EXPECT_EQ(count_rule(findings, "clock-reachability"), 0)
      << render(findings);
  EXPECT_EQ(count_rule(findings, "rand-reachability"), 0)
      << render(findings);
}

TEST(Reachability, ObsAndRngFilesAreExemptTaintSources) {
  // The same wrappers under src/obs/ are instrumentation by design:
  // nothing propagates, so the same core caller is clean.
  const auto findings = rac::analyze::analyze_sources(
      {{"src/core/agent.cpp", read_fixture("taint_core_bad.cpp")},
       {"src/obs/timing.cpp", read_fixture("taint_util_bad.cpp")}},
      nullptr);
  EXPECT_EQ(count_rule(findings, "clock-reachability"), 0)
      << render(findings);
  EXPECT_EQ(count_rule(findings, "rand-reachability"), 0)
      << render(findings);
}

TEST(Reachability, WrapperDefinitionAloneIsNotReported) {
  // Defining the wrappers in util is the direct-read rules' business, not
  // a reachability finding; only reproducible-subsystem call sites are.
  const auto findings =
      analyze_fixture("taint_util_bad.cpp", "src/util/timing.cpp");
  EXPECT_EQ(count_rule(findings, "clock-reachability"), 0)
      << render(findings);
  EXPECT_EQ(count_rule(findings, "rand-reachability"), 0)
      << render(findings);
}

// --- parallel-ref-capture -------------------------------------------------

TEST(ParallelRefCapture, FiresOnSumAppendAndLastWins) {
  const auto findings = analyze_fixture("parallel_capture_bad.cpp",
                                        "src/util/thread_pool_use.cpp");
  EXPECT_EQ(count_rule(findings, "parallel-ref-capture"), 3)
      << render(findings);
}

TEST(ParallelRefCapture, SilentOnIndexedSlotsAndLocals) {
  const auto findings = analyze_fixture("parallel_capture_good.cpp",
                                        "src/util/thread_pool_use.cpp");
  EXPECT_EQ(count_rule(findings, "parallel-ref-capture"), 0)
      << render(findings);
}

TEST(ParallelRefCapture, AppliesOutsideSrcToo) {
  // Parallel races are races wherever they live, tools/ included.
  const auto findings =
      analyze_fixture("parallel_capture_bad.cpp", "tools/fixture.cpp");
  EXPECT_EQ(count_rule(findings, "parallel-ref-capture"), 3)
      << render(findings);
}

// --- include-cycle --------------------------------------------------------

TEST(IncludeGraph, DetectsIncludeCycles) {
  const auto findings = rac::analyze::analyze_sources(
      {{"src/x/a.hpp", "#pragma once\n#include \"x/b.hpp\"\n"},
       {"src/x/b.hpp", "#pragma once\n#include \"x/a.hpp\"\n"}},
      nullptr);
  EXPECT_GE(count_rule(findings, "include-cycle"), 1) << render(findings);
}

TEST(IncludeGraph, AcyclicIncludesAreClean) {
  const auto findings = rac::analyze::analyze_sources(
      {{"src/x/a.hpp", "#pragma once\n#include \"x/b.hpp\"\n"},
       {"src/x/b.hpp", "#pragma once\n"}},
      nullptr);
  EXPECT_EQ(count_rule(findings, "include-cycle"), 0) << render(findings);
}

// --- layer rules ----------------------------------------------------------

Manifest two_layer_manifest() {
  return Manifest::parse(
      "layer util\nlayer obs\ndep util:\ndep obs: util\n");
}

TEST(Layers, ConformingEdgeIsClean) {
  const Manifest m = two_layer_manifest();
  const auto findings = rac::analyze::analyze_sources(
      {{"src/obs/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"},
       {"src/util/b.hpp", "#pragma once\n"}},
      &m);
  EXPECT_TRUE(findings.empty()) << render(findings);
}

TEST(Layers, UpwardEdgeIsLayerOrder) {
  const Manifest m = two_layer_manifest();
  const auto findings = rac::analyze::analyze_sources(
      {{"src/obs/a.hpp", "#pragma once\n"},
       {"src/util/b.hpp", "#pragma once\n#include \"obs/a.hpp\"\n"}},
      &m);
  ASSERT_EQ(count_rule(findings, "layer-order"), 1) << render(findings);
  EXPECT_EQ(findings.front().file, "src/util/b.hpp");
  EXPECT_EQ(findings.front().line, 2);
}

TEST(Layers, UndeclaredEdgeIsLayerEdge) {
  const Manifest m = Manifest::parse(
      "layer util\nlayer obs\ndep util:\ndep obs:\n");
  const auto findings = rac::analyze::analyze_sources(
      {{"src/obs/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"},
       {"src/util/b.hpp", "#pragma once\n"}},
      &m);
  ASSERT_EQ(count_rule(findings, "layer-edge"), 1) << render(findings);
  EXPECT_NE(findings.front().message.find("obs -> util"),
            std::string::npos);
}

TEST(Layers, UndeclaredModuleIsLayerUnknown) {
  const Manifest m = two_layer_manifest();
  const auto findings = rac::analyze::analyze_sources(
      {{"src/zed/a.hpp", "#pragma once\n"}}, &m);
  ASSERT_EQ(count_rule(findings, "layer-unknown"), 1) << render(findings);
  EXPECT_NE(findings.front().message.find("'zed'"), std::string::npos);
}

TEST(Layers, SameLayerCycleIsLayerCycle) {
  // core <-> baselines cycles the module graph without the manifest ever
  // being able to bless it (parse rejects cyclic dep lines).
  const Manifest m = Manifest::parse(
      "layer core baselines\ndep core: baselines\ndep baselines:\n");
  const auto findings = rac::analyze::analyze_sources(
      {{"src/core/a.hpp", "#pragma once\n#include \"baselines/b.hpp\"\n"},
       {"src/baselines/b.hpp", "#pragma once\n#include \"core/a.hpp\"\n"}},
      &m);
  EXPECT_GE(count_rule(findings, "layer-cycle"), 1) << render(findings);
  EXPECT_GE(count_rule(findings, "include-cycle"), 1) << render(findings);
}

TEST(Layers, ManifestRejectsIllegalArchitectures) {
  // Duplicate module.
  EXPECT_THROW(Manifest::parse("layer util\nlayer util\n"),
               std::runtime_error);
  // Upward dep.
  EXPECT_THROW(
      Manifest::parse("layer util\nlayer obs\ndep util: obs\ndep obs:\n"),
      std::runtime_error);
  // Dep naming an unknown module.
  EXPECT_THROW(Manifest::parse("layer util\ndep util: ghost\n"),
               std::runtime_error);
  // Same-layer dep cycle.
  EXPECT_THROW(
      Manifest::parse("layer a b\ndep a: b\ndep b: a\n"),
      std::runtime_error);
  // Unrecognized directive.
  EXPECT_THROW(Manifest::parse("module util\n"), std::runtime_error);
}

// --- suppressions ---------------------------------------------------------

TEST(AnalyzeSuppressions, SameLineAllowSilencesTheFinding) {
  const std::string text =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "void f(double& t) {\n"
      "  for (const auto& kv : m) {\n"
      "    t += kv.second;  // rac-analyze: allow(unordered-iter) fp order"
      " accepted here\n"
      "  }\n"
      "}\n";
  const auto findings =
      rac::analyze::analyze_sources({{"src/rl/x.cpp", text}}, nullptr);
  // The unordered_map declaration itself is a hot-path-alloc finding in
  // src/rl/; the allowed line is silent and its allow() counts as used.
  ASSERT_EQ(findings.size(), 1u) << render(findings);
  EXPECT_EQ(findings[0].rule, "hot-path-alloc");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(AnalyzeSuppressions, StaleAllowIsUnusedSuppression) {
  const auto findings = rac::analyze::analyze_sources(
      {{"src/rl/x.cpp",
        "int x = 0;  // rac-analyze: allow(unordered-iter) stale\n"}},
      nullptr);
  ASSERT_EQ(count_rule(findings, "unused-suppression"), 1)
      << render(findings);
  EXPECT_EQ(findings.front().line, 1);
}

TEST(AnalyzeSuppressions, LintMarkerDoesNotSuppressAnalyzeFindings) {
  const std::string text =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "void f(double& t) {\n"
      "  for (const auto& kv : m) {\n"
      "    t += kv.second;  // rac-lint: allow(unordered-iter) wrong tool\n"
      "  }\n"
      "}\n";
  const auto findings =
      rac::analyze::analyze_sources({{"src/rl/x.cpp", text}}, nullptr);
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 1) << render(findings);
}

// --- plumbing -------------------------------------------------------------

TEST(AnalyzeRuleTable, IdsAreUniqueAndFindingsReferToThem) {
  std::set<std::string_view> ids;
  for (const auto& rule : rac::analyze::rules()) ids.insert(rule.id);
  EXPECT_EQ(ids.size(), rac::analyze::rules().size());
  EXPECT_EQ(ids.size(), 23u);
  for (const std::string fixture :
       {"unordered_iter_bad.cpp", "retrain_order_bad.cpp",
        "parallel_capture_bad.cpp"}) {
    for (const auto& f : analyze_fixture(fixture, "src/core/fixture.cpp")) {
      EXPECT_TRUE(ids.count(f.rule)) << fixture << " -> " << f.rule;
    }
  }
}

TEST(AnalyzeReport, JsonCarriesCountAndEscapes) {
  const std::vector<Finding> findings = {
      {"src/a\"b.cpp", 7, "unordered-iter", "line1\nline2"}};
  const std::string json = rac::analyze::to_json(findings);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("src/a\\\"b.cpp"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
}

TEST(AnalyzeTree, MissingSubdirThrows) {
  EXPECT_THROW(
      rac::analyze::load_tree(RAC_ANALYZE_FIXTURE_DIR, {"no_such_subdir"}),
      std::runtime_error);
}

TEST(AnalyzeTree, FindingsAreSortedDeterministically) {
  const auto findings =
      analyze_fixture("unordered_iter_bad.cpp", "src/rl/fixture.cpp");
  auto sorted = findings;
  std::sort(sorted.begin(), sorted.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  for (std::size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ(findings[i].file, sorted[i].file);
    EXPECT_EQ(findings[i].line, sorted[i].line);
  }
}

}  // namespace
