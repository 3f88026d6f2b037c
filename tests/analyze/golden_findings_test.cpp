// Golden findings: the inputs the rule tests analyze -- every fixture
// under each pretend path they use, their inline texts, and the
// multi-file include/layer/reachability sets -- with the exact multiset
// of (file, line, rule) findings rac-analyze must report for each.
// The table pins all rule families at once -- direct reads, per-line
// conventions, token dataflow, and the include/layer graph -- so a change
// to one family that adds, drops, or moves another's findings fails here
// even where the focused tests only count their own rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fixtures.hpp"

namespace {

using rac::analyze::Finding;
using rac::analyze::Manifest;
using rac::analyze::SourceFile;
using namespace rac::analyze::testing;

/// One file of a case, analyzed under a pretend repo-relative path: a
/// fixture under RAC_ANALYZE_FIXTURE_DIR (fx) or inline text (tx).
struct Input {
  std::string relpath;
  std::string fixture;
  std::string text;
};

Input fx(std::string relpath, std::string fixture) {
  return {std::move(relpath), std::move(fixture), {}};
}

Input tx(std::string relpath, std::string text) {
  return {std::move(relpath), {}, std::move(text)};
}

struct Case {
  std::string label;
  std::vector<Input> files;
  const char* manifest;  // nullptr: layer rules skipped
  /// Space-separated "line:rule" findings, sorted as strings; multi-file
  /// cases spell "file:line:rule".
  std::string expected;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> table = {
      {"rand@core",
       {fx("src/core/fixture.cpp", "rand.cpp")},
       nullptr,
       "6:rand 7:rand 8:rand"},
      {"rand@rng",
       {fx("src/util/rng.cpp", "rand.cpp")},
       nullptr,
       ""},
      {"wall@core",
       {fx("src/core/fixture.cpp", "wall_clock.cpp")},
       nullptr,
       "6:wall-clock 7:wall-clock"},
      {"wall@rl",
       {fx("src/rl/fixture.cpp", "wall_clock.cpp")},
       nullptr,
       "6:wall-clock 7:wall-clock"},
      {"wall@env",
       {fx("src/env/fixture.cpp", "wall_clock.cpp")},
       nullptr,
       "6:wall-clock 7:wall-clock"},
      {"wall@tiersim",
       {fx("src/tiersim/fixture.cpp", "wall_clock.cpp")},
       nullptr,
       "6:wall-clock 7:wall-clock"},
      {"wall@queueing",
       {fx("src/queueing/fixture.cpp", "wall_clock.cpp")},
       nullptr,
       "6:wall-clock 7:wall-clock"},
      {"wall@util",
       {fx("src/util/fixture.cpp", "wall_clock.cpp")},
       nullptr,
       ""},
      {"defreg@core",
       {fx("src/core/fixture.cpp", "default_registry.cpp")},
       nullptr,
       "5:default-registry"},
      {"defreg@obs",
       {fx("src/obs/fixture.cpp", "default_registry.cpp")},
       nullptr,
       ""},
      {"defreg@tools",
       {fx("tools/bench/fixture.cpp", "default_registry.cpp")},
       nullptr,
       ""},
      {"defreg@bench",
       {fx("bench/fixture.cpp", "default_registry.cpp")},
       nullptr,
       ""},
      {"defreg@examples",
       {fx("examples/fixture.cpp", "default_registry.cpp")},
       nullptr,
       ""},
      {"assert@rl",
       {fx("src/rl/fixture.cpp", "raw_assert.cpp")},
       nullptr,
       "2:raw-assert 5:raw-assert"},
      {"assert@core",
       {fx("src/core/fixture.cpp", "raw_assert.cpp")},
       nullptr,
       "2:raw-assert 5:raw-assert"},
      {"static_assert",
       {tx("src/rl/fixture.cpp", "static_assert(1 + 1 == 2, \"arith\");\n")},
       nullptr,
       ""},
      {"iostream@env",
       {fx("src/env/fixture.cpp", "iostream.cpp")},
       nullptr,
       "5:iostream 6:iostream"},
      {"iostream@log",
       {fx("src/util/log.cpp", "iostream.cpp")},
       nullptr,
       ""},
      {"iostream@core",
       {fx("src/core/fixture.cpp", "iostream.cpp")},
       nullptr,
       "5:iostream 6:iostream"},
      {"iostream@tools",
       {fx("tools/bench/fixture.cpp", "iostream.cpp")},
       nullptr,
       ""},
      {"iostream@bench",
       {fx("bench/fixture.cpp", "iostream.cpp")},
       nullptr,
       ""},
      {"iostream@examples",
       {fx("examples/fixture.cpp", "iostream.cpp")},
       nullptr,
       ""},
      {"pragma@hpp",
       {fx("src/util/fixture.hpp", "missing_pragma_once.hpp")},
       nullptr,
       "3:pragma-once"},
      {"pragma@cpp",
       {fx("src/util/fixture.cpp", "missing_pragma_once.hpp")},
       nullptr,
       ""},
      {"pragma@clean",
       {tx("src/util/fixture.hpp",
           "// A well-formed header.\n"
           "#pragma once\n"
           "\n"
           "namespace rac {}\n")},
       nullptr,
       ""},
      {"include@core",
       {fx("src/core/fixture.cpp", "include_hygiene.cpp")},
       nullptr,
       "2:include-hygiene"},
      {"locale@rl",
       {fx("src/rl/fixture.cpp", "locale_io.cpp")},
       nullptr,
       "12:locale-io 15:locale-io 3:locale-io 5:locale-io 7:locale-io "
       "9:locale-io"},
      {"locale@core",
       {fx("src/core/fixture.cpp", "locale_io.cpp")},
       nullptr,
       "12:locale-io 15:locale-io 3:locale-io 5:locale-io 7:locale-io "
       "9:locale-io"},
      {"locale@hex",
       {tx("src/obs/fixture.cpp",
           "void f(char* b, unsigned c) { std::snprintf(b, 8,"
           " \"\\\\u%04x\", c); }\n")},
       nullptr,
       ""},
      {"measure@core",
       {fx("src/core/fixture.cpp", "unchecked_measure.cpp")},
       nullptr,
       "4:unchecked-measure 5:unchecked-measure"},
      {"measure@rl",
       {fx("src/rl/fixture.cpp", "unchecked_measure.cpp")},
       nullptr,
       "7:unused-suppression"},
      {"measure@interval",
       {tx("src/core/fixture.cpp",
           "void f(Env& e, const Config& c) { auto m ="
           " e.measure_interval(c); }\n")},
       nullptr,
       ""},
      {"timer@core",
       {fx("src/core/fixture.cpp", "untracked_timer.cpp")},
       nullptr,
       "6:untracked-timer 7:untracked-timer"},
      {"timer@obs",
       {fx("src/obs/fixture.cpp", "untracked_timer.cpp")},
       nullptr,
       "9:unused-suppression"},
      {"timer@bench",
       {fx("bench/fixture.cpp", "untracked_timer.cpp")},
       nullptr,
       "9:unused-suppression"},
      {"alloc@queueing",
       {fx("src/queueing/fixture.cpp", "hot_path_alloc.cpp")},
       nullptr,
       "10:hot-path-alloc 11:hot-path-alloc 12:hot-path-alloc "
       "13:hot-path-alloc 8:hot-path-alloc 9:hot-path-alloc"},
      {"alloc@tiersim",
       {fx("src/tiersim/fixture.cpp", "hot_path_alloc.cpp")},
       nullptr,
       "10:hot-path-alloc 11:hot-path-alloc 12:hot-path-alloc "
       "13:hot-path-alloc 8:hot-path-alloc 9:hot-path-alloc"},
      {"alloc@rl",
       {fx("src/rl/fixture.cpp", "hot_path_alloc.cpp")},
       nullptr,
       "10:hot-path-alloc 11:hot-path-alloc 12:hot-path-alloc "
       "13:hot-path-alloc 8:hot-path-alloc 9:hot-path-alloc"},
      {"alloc@core",
       {fx("src/core/fixture.cpp", "hot_path_alloc.cpp")},
       nullptr,
       "19:unused-suppression"},
      {"alloc@util",
       {fx("src/util/fixture.cpp", "hot_path_alloc.cpp")},
       nullptr,
       "19:unused-suppression"},
      {"alloc@env",
       {fx("src/env/fixture.cpp", "hot_path_alloc.cpp")},
       nullptr,
       "19:unused-suppression"},
      {"alloc@lookalike",
       {tx("src/rl/fixture.cpp",
           "#include <unordered_map>\n"
           "#include <list>\n"
           "int renew_count(int newest) { return newest + 1; }\n")},
       nullptr,
       ""},
      {"floateq@queueing",
       {fx("src/queueing/fixture.cpp", "float_eq.cpp")},
       nullptr,
       "2:float-eq 4:float-eq"},
      {"floateq@core",
       {fx("src/core/fixture.cpp", "float_eq.cpp")},
       nullptr,
       "2:float-eq 4:float-eq"},
      {"fpenv@core",
       {fx("src/core/fixture.cpp", "fp_env.cpp")},
       nullptr,
       "10:fp-env 11:fp-env 12:fp-env 7:fp-env 8:fp-env 9:fp-env"},
      {"fpenv@util",
       {fx("src/util/fixture.cpp", "fp_env.cpp")},
       nullptr,
       "10:fp-env 11:fp-env 12:fp-env 7:fp-env 8:fp-env 9:fp-env"},
      {"fpenv@queueing",
       {fx("src/queueing/fixture.cpp", "fp_env.cpp")},
       nullptr,
       "10:fp-env 11:fp-env 12:fp-env 7:fp-env 8:fp-env 9:fp-env"},
      {"fpenv@mvafast",
       {fx("src/queueing/mva_fast.cpp", "fp_env.cpp")},
       nullptr,
       "10:fp-env 11:fp-env 12:fp-env 7:fp-env 8:fp-env 9:fp-env"},
      {"fpenv@mva",
       {fx("src/queueing/mva.cpp", "fp_env.cpp")},
       nullptr,
       ""},
      {"fpenv@tests",
       {fx("tests/queueing/fixture.cpp", "fp_env.cpp")},
       nullptr,
       ""},
      {"fpenv@bench",
       {fx("bench/fixture.cpp", "fp_env.cpp")},
       nullptr,
       ""},
      {"fpenv@toolsbench",
       {fx("tools/bench/fixture.cpp", "fp_env.cpp")},
       nullptr,
       ""},
      {"suppressed@util",
       {fx("src/util/fixture.cpp", "suppressed.cpp")},
       nullptr,
       "7:float-eq 7:unused-suppression"},
      {"suppressed@core",
       {fx("src/core/fixture.cpp", "suppressed.cpp")},
       nullptr,
       "7:float-eq 7:unused-suppression"},
      {"supp@used",
       {tx("src/util/fixture.cpp",
           "bool f(double x) { return x == 0.0; }  // rac-analyze:"
           " allow(float-eq) exactness intended\n")},
       nullptr,
       ""},
      {"supp@stale",
       {tx("src/util/fixture.cpp",
           "int f();  // rac-analyze: allow(rand) nothing to suppress"
           " here\n")},
       nullptr,
       "1:unused-suppression"},
      {"supp@placeholder",
       {tx("src/util/fixture.cpp",
           "// The syntax is `// rac-analyze: allow(<rule>)` on the"
           " finding line.\n"
           "int f();\n")},
       nullptr,
       ""},
      {"supp@unused-exempt",
       {tx("src/util/fixture.cpp",
           "int f();  // rac-analyze: allow(rand, unused-suppression)"
           " intentionally pre-placed\n")},
       nullptr,
       ""},
      {"supp@comma",
       {tx("src/core/fixture.cpp",
           "bool f(double x) { return x == 1.0 && std::rand() > 0; }  //"
           " rac-analyze: allow(float-eq, rand) fixture justification\n")},
       nullptr,
       ""},
      {"supp@adjacent",
       {tx("src/core/fixture.cpp",
           "// rac-analyze: allow(float-eq) on the wrong line\n"
           "bool f(double x) { return x == 1.0; }\n")},
       nullptr,
       "1:unused-suppression 2:float-eq"},
      {"strip@comments",
       {fx("src/core/fixture.cpp", "strings_and_comments.cpp")},
       nullptr,
       ""},
      {"strip@raw",
       {fx("src/core/fixture.cpp", "raw_string.cpp")},
       nullptr,
       "17:rand"},
      {"strip@continuation",
       {fx("src/core/fixture.cpp", "line_continuation.cpp")},
       nullptr,
       "16:rand"},
      {"uiter@rl",
       {fx("src/rl/fixture.cpp", "unordered_iter_bad.cpp")},
       nullptr,
       "11:unordered-iter 16:hot-path-alloc 19:unordered-iter "
       "25:hot-path-alloc 28:unordered-iter 8:hot-path-alloc"},
      {"uiter@tools",
       {fx("tools/fixture.cpp", "unordered_iter_bad.cpp")},
       nullptr,
       ""},
      {"uiter@bench",
       {fx("bench/fixture.cpp", "unordered_iter_bad.cpp")},
       nullptr,
       "11:unordered-iter 19:unordered-iter 28:unordered-iter"},
      {"uiter@core",
       {fx("src/core/fixture.cpp", "unordered_iter_bad.cpp")},
       nullptr,
       "11:unordered-iter 19:unordered-iter 28:unordered-iter"},
      {"uiter-good@rl",
       {fx("src/rl/fixture.cpp", "unordered_iter_good.cpp")},
       nullptr,
       "10:hot-path-alloc 19:hot-path-alloc 20:hot-path-alloc "
       "21:hot-path-alloc 28:hot-path-alloc 29:hot-path-alloc "
       "37:hot-path-alloc"},
      {"retrain@qtable",
       {fx("src/rl/qtable.cpp", "retrain_order_bad.cpp")},
       nullptr,
       "18:unordered-iter 24:hot-path-alloc"},
      {"retrain@core",
       {fx("src/core/fixture.cpp", "retrain_order_bad.cpp")},
       nullptr,
       "18:unordered-iter"},
      {"retrain-good@qtable",
       {fx("src/rl/qtable.cpp", "retrain_order_good.cpp")},
       nullptr,
       "29:hot-path-alloc"},
      {"taint@bad",
       {fx("src/core/agent.cpp", "taint_core_bad.cpp"),
        fx("src/util/timing.cpp", "taint_util_bad.cpp")},
       nullptr,
       "src/core/agent.cpp:12:rand-reachability "
       "src/core/agent.cpp:8:clock-reachability "
       "src/util/timing.cpp:20:rand"},
      {"taint@good",
       {fx("src/core/agent.cpp", "taint_core_good.cpp"),
        fx("src/util/rng.cpp", "taint_util_good.cpp")},
       nullptr,
       ""},
      {"taint@obs",
       {fx("src/core/agent.cpp", "taint_core_bad.cpp"),
        fx("src/obs/timing.cpp", "taint_util_bad.cpp")},
       nullptr,
       "src/obs/timing.cpp:20:rand"},
      {"taint@wrapper",
       {fx("src/util/timing.cpp", "taint_util_bad.cpp")},
       nullptr,
       "20:rand"},
      {"parallel@util",
       {fx("src/util/thread_pool_use.cpp", "parallel_capture_bad.cpp")},
       nullptr,
       "10:parallel-ref-capture 16:parallel-ref-capture "
       "22:parallel-ref-capture"},
      {"parallel@tools",
       {fx("tools/fixture.cpp", "parallel_capture_bad.cpp")},
       nullptr,
       "10:parallel-ref-capture 16:parallel-ref-capture "
       "22:parallel-ref-capture"},
      {"parallel@core",
       {fx("src/core/fixture.cpp", "parallel_capture_bad.cpp")},
       nullptr,
       "10:parallel-ref-capture 16:parallel-ref-capture "
       "22:parallel-ref-capture"},
      {"parallel-good@util",
       {fx("src/util/thread_pool_use.cpp", "parallel_capture_good.cpp")},
       nullptr,
       ""},
      {"include-cycle",
       {tx("src/x/a.hpp", "#pragma once\n#include \"x/b.hpp\"\n"),
        tx("src/x/b.hpp", "#pragma once\n#include \"x/a.hpp\"\n")},
       nullptr,
       "src/x/b.hpp:2:include-cycle"},
      {"include-acyclic",
       {tx("src/x/a.hpp", "#pragma once\n#include \"x/b.hpp\"\n"),
        tx("src/x/b.hpp", "#pragma once\n")},
       nullptr,
       ""},
      {"layers@conforming",
       {tx("src/obs/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"),
        tx("src/util/b.hpp", "#pragma once\n")},
       "layer util\nlayer obs\ndep util:\ndep obs: util\n",
       ""},
      {"layers@order",
       {tx("src/obs/a.hpp", "#pragma once\n"),
        tx("src/util/b.hpp", "#pragma once\n#include \"obs/a.hpp\"\n")},
       "layer util\nlayer obs\ndep util:\ndep obs: util\n",
       "src/util/b.hpp:2:layer-order"},
      {"layers@edge",
       {tx("src/obs/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"),
        tx("src/util/b.hpp", "#pragma once\n")},
       "layer util\nlayer obs\ndep util:\ndep obs:\n",
       "src/obs/a.hpp:2:layer-edge"},
      {"layers@unknown",
       {tx("src/zed/a.hpp", "#pragma once\n")},
       "layer util\nlayer obs\ndep util:\ndep obs: util\n",
       "1:layer-unknown"},
      {"layers@cycle",
       {tx("src/core/a.hpp", "#pragma once\n#include \"baselines/b.hpp\"\n"),
        tx("src/baselines/b.hpp", "#pragma once\n#include \"core/a.hpp\"\n")},
       "layer core baselines\ndep core: baselines\ndep baselines:\n",
       "src/baselines/b.hpp:2:layer-edge src/core/a.hpp:2:include-cycle "
       "src/core/a.hpp:2:layer-cycle"},
      {"asupp@used",
       {tx("src/rl/x.cpp",
           "#include <unordered_map>\n"
           "std::unordered_map<int, int> m;\n"
           "void f(double& t) {\n"
           "  for (const auto& kv : m) {\n"
           "    t += kv.second;  // rac-analyze: allow(unordered-iter) fp"
           " order accepted here\n"
           "  }\n"
           "}\n")},
       nullptr,
       "2:hot-path-alloc"},
      {"asupp@stale",
       {tx("src/rl/x.cpp",
           "int x = 0;  // rac-analyze: allow(unordered-iter) stale\n")},
       nullptr,
       "1:unused-suppression"},
  };
  return table;
}

std::vector<Finding> run(const Case& c) {
  std::vector<SourceFile> files;
  for (const Input& in : c.files) {
    files.push_back(
        {in.relpath, in.fixture.empty() ? in.text : read_fixture(in.fixture)});
  }
  if (c.manifest == nullptr) {
    return rac::analyze::analyze_sources(files, nullptr);
  }
  const Manifest manifest = Manifest::parse(c.manifest);
  return rac::analyze::analyze_sources(files, &manifest);
}

TEST(GoldenFindings, EveryRuleTestInputReportsExactlyItsFindings) {
  for (const Case& c : cases()) {
    const auto findings = run(c);
    std::vector<std::string> got;
    for (const Finding& f : findings) {
      got.push_back((c.files.size() > 1 ? f.file + ":" : "") +
                    std::to_string(f.line) + ":" + f.rule);
    }
    std::sort(got.begin(), got.end());
    std::vector<std::string> expected;
    std::istringstream in(c.expected);
    for (std::string item; in >> item;) expected.push_back(item);
    EXPECT_EQ(got, expected) << c.label << "\n" << render(findings);
  }
}

TEST(GoldenFindings, PerLineAndDirectReadMessagesAreStable) {
  // Messages are part of the contract: CI logs and suppression reviews
  // quote them.
  static const std::multimap<std::string, std::string> kMessages = {
      {"default-registry",
       "default_registry() referenced outside src/obs/; take an "
       "obs::Registry* and resolve via obs::registry_or_default"},
      {"float-eq",
       "exact floating-point comparison against a literal; compare with a "
       "tolerance or justify with a suppression"},
      {"fp-env",
       "floating-point environment write in library code; pool threads "
       "must all compute in one FP mode, so only the MVA recursion's "
       "scoped guard in src/queueing/mva.cpp sets it"},
      {"hot-path-alloc",
       "per-element heap allocation in a hot-path subsystem (operator new, "
       "make_unique/make_shared, or a node-based container); use flat/arena "
       "storage, or justify a cold-path site with a suppression"},
      {"include-hygiene",
       "path-traversing include; project includes are rooted at src/"},
      {"iostream",
       "direct console I/O in library code; report via return values, "
       "exceptions, or util::log_warn"},
      {"locale-io",
       "locale-sensitive numeric parsing (result depends on the process "
       "locale); use util/lineio parse_double/std::from_chars"},
      {"locale-io",
       "locale-sensitive printf/scanf float conversion (output depends on "
       "the process locale); use util/lineio format_double/std::to_chars"},
      {"pragma-once",
       "header does not open with #pragma once"},
      {"rand",
       "nondeterministic randomness; use the seeded util::Rng "
       "(util::derive_seed for per-task streams)"},
      {"raw-assert",
       "raw assert in library code (vanishes under NDEBUG); use "
       "RAC_EXPECT/RAC_ENSURE/RAC_INVARIANT from util/contracts.hpp"},
      {"unchecked-measure",
       "direct Environment::measure() in the online management loop; use "
       "measure_interval() and check its `lost` flag so a lost interval "
       "degrades gracefully, or justify an offline/bootstrap probe with a "
       "suppression"},
      {"untracked-timer",
       "raw clock read in library code; time phases with obs::ProfileScope "
       "(pass it a Histogram to also export a latency metric) so the work "
       "shows up in bench reports, or justify with a suppression"},
      {"wall-clock",
       "wall-clock read in a reproducible subsystem; time must come from the "
       "simulation clock or the caller"},
  };
  for (const Case& c : cases()) {
    for (const Finding& f : run(c)) {
      const auto [first, last] = kMessages.equal_range(f.rule);
      if (first == last) continue;
      EXPECT_TRUE(std::any_of(
          first, last, [&](const auto& m) { return m.second == f.message; }))
          << c.label << ": " << render({f});
    }
  }
}

}  // namespace
