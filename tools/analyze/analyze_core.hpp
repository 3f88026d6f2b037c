// rac-analyze: the project's static checker.
//
// A dependency-free checker for the invariants this codebase enforces by
// convention but the compiler cannot. Every rule runs on the srcscan front
// end (comments and string literals stripped, token stream with lines):
// per-line rules match the stripped lines, the rest work on the token
// stream with scope tracking and cross-file graphs.
//
// Determinism (direct reads come from the same token scan that seeds the
// reachability rules):
//   rand            std::rand / rand() / srand / std::random_device
//                   anywhere but src/util/rng.* -- all randomness must flow
//                   through the seeded, deterministic util::Rng. Member
//                   calls (rng.rand(), p->rand()) are not ambient reads.
//   wall-clock      wall-clock reads (system_clock, time(nullptr),
//                   gettimeofday, clock_gettime, localtime, gmtime, ...) in
//                   src/{core,rl,env,tiersim,queueing} -- simulated
//                   subsystems must be reproducible from their inputs.
//   clock-reachability / rand-reachability
//                   a reproducible subsystem calls a helper whose body --
//                   possibly through further helpers, in any src/ file --
//                   reaches a wall-clock read or ambient randomness. This
//                   closes the wrapper loophole of the direct-read rules.
//                   Taint sources in src/obs/, src/util/log.*, and
//                   src/util/rng.* are exempt (instrumentation and the
//                   seeded RNG own those reads by design).
//   unordered-iter  range-for over an unordered_{map,set} whose body does
//                   order-dependent work: compound-assignment accumulation
//                   into outer state (floating-point sums change with
//                   visit order), last-iteration-wins assignments of the
//                   loop element, or appends to an outer container that is
//                   never sorted afterwards (the PR 4 retrain bug class:
//                   serialized output followed hash-table iteration
//                   order). Scoped to src/ and bench/ -- decision traces
//                   and bench digests are bit-compared across runs.
//
// Parallel safety:
//   parallel-ref-capture
//                   a lambda passed to parallel_for/parallel_map captures
//                   outer state by reference and writes it without
//                   indexing by the task-index parameter. That is a data
//                   race TSan only reports when a schedule happens to
//                   expose it; the write shape is detectable statically.
//
// Include/layer graph (see include_graph.hpp):
//   include-cycle   quoted-include cycle among project files.
//   layer-unknown   src/ module missing from layers.manifest.
//   layer-order     module includes a module from a higher layer.
//   layer-edge      module include edge not declared in layers.manifest.
//   layer-cycle     cycle in the observed module dependency graph.
//
// Per-line conventions:
//   default-registry  obs::default_registry() referenced in src/ outside
//                   src/obs/ -- components take an injectable registry and
//                   resolve it via obs::registry_or_default.
//   raw-assert      assert( or <cassert> -- compiled out under NDEBUG; use
//                   the RAC_EXPECT/RAC_ENSURE/RAC_INVARIANT contract macros.
//   iostream        std::cout / std::cerr / std::clog in src/ (except
//                   src/util/log.cpp) -- libraries report via return
//                   values, exceptions, and util::log_warn. CLI binaries
//                   under tools/, bench/, and examples/ own their stdout.
//   pragma-once     every header must open with #pragma once.
//   include-hygiene quoted includes must not path-traverse ("../").
//   locale-io       locale-sensitive numeric parsing (stod, strtod, atof,
//                   setlocale) or printf/scanf float conversions; use
//                   util/lineio.
//   untracked-timer raw steady/high_resolution clock reads in src/ outside
//                   src/obs/; time phases with obs::ProfileScope.
//   hot-path-alloc  operator new, make_unique/make_shared, or a node-based
//                   container in src/{queueing,tiersim,rl} -- the inner
//                   loops there are allocation-free by design.
//   float-eq        == / != against a floating-point literal.
//   unchecked-measure
//                   raw measure() in src/core/; use measure_interval() and
//                   check its `lost` flag.
//   fp-env          _mm_setcsr, _MM_SET_{FLUSH_ZERO,DENORMALS_ZERO}_MODE,
//                   fesetenv, feupdateenv or fesetround in src/ outside
//                   src/queueing/mva.cpp -- every pool thread computes in
//                   one FP mode; the MVA recursion's scoped flush guard is
//                   the only writer.
//
// Findings on a line carrying `// rac-analyze: allow(<rule>[, <rule>...])`
// are suppressed for the named rules only; suppressions are expected to
// carry a justification in the same comment. An allow() that suppresses
// nothing on its line is itself a finding (unused-suppression), so stale
// exemptions fail the build instead of accumulating.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "include_graph.hpp"

namespace rac::analyze {

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// The rule table, in reporting order.
const std::vector<RuleInfo>& rules();

/// One in-memory source file; relpath (forward-slash, repo-relative)
/// drives path scoping and include resolution, so tests can analyze
/// fixture text under any pretend path.
struct SourceFile {
  std::string relpath;
  std::string contents;
};

/// Analyze a file set as a unit (cross-file rules see all of it).
/// `manifest` may be null: layer rules are skipped, everything else runs.
std::vector<Finding> analyze_sources(const std::vector<SourceFile>& files,
                                     const Manifest* manifest);

/// Load every *.hpp/*.cpp/*.h/*.cc under root/<subdir> (or a single file)
/// for each subdir, sorted. Throws std::runtime_error on a missing
/// subdir.
std::vector<SourceFile> load_tree(const std::filesystem::path& root,
                                  const std::vector<std::string>& subdirs);

/// Observed module-level dependency map of a file set (for the manifest
/// golden test and --write-manifest).
std::map<std::string, std::set<std::string>> observed_module_deps(
    const std::vector<SourceFile>& files);

/// Machine-readable report: {"count": N, "findings": [...]}.
std::string to_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 with one run, the full rule table, and one result per
/// finding (physicalLocation uri = repo-relative path).
std::string to_sarif(const std::vector<Finding>& findings);

/// Human-readable "file:line: [rule] message" lines.
std::string to_text(const std::vector<Finding>& findings);

}  // namespace rac::analyze
