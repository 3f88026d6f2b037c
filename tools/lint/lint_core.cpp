#include "lint_core.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "tokenizer.hpp"

namespace rac::lint {

namespace {

bool path_starts_with(std::string_view path, std::string_view prefix) {
  return path.size() >= prefix.size() &&
         path.substr(0, prefix.size()) == prefix;
}

bool is_header(std::string_view path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

struct LineRule {
  std::string_view id;
  std::regex pattern;
  std::string_view message;
  /// Empty: applies everywhere. Otherwise the file must be under one of
  /// these prefixes for the rule to fire.
  std::vector<std::string_view> only_under;
  /// Files exempt from the rule (exact relpath or directory prefix).
  std::vector<std::string_view> except_under;
  /// Match against the raw line instead of the comment/string-stripped
  /// one. Needed by rules that inspect string-literal contents (e.g. the
  /// quoted path of an #include); such patterns must be anchored tightly
  /// enough not to fire inside comments.
  bool match_raw = false;
};

const char* kFloatLit = R"((\d+\.\d*|\.\d+)([eE][+-]?\d+)?[fFlL]?)";

const std::vector<LineRule>& line_rules() {
  static const std::vector<LineRule> rules = [] {
    std::vector<LineRule> r;
    r.push_back(LineRule{
        "rand",
        std::regex(R"(\bstd\s*::\s*rand\b|\bsrand\s*\(|\brandom_device\b|(^|[^\w:.])rand\s*\()"),
        "nondeterministic randomness; use the seeded util::Rng "
        "(util::derive_seed for per-task streams)",
        {},
        {"src/util/rng."}});
    r.push_back(LineRule{
        "wall-clock",
        std::regex(R"(\bsystem_clock\b|(^|[^\w.])time\s*\(\s*(nullptr|NULL|0)\s*\)|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|\bgmtime\b)"),
        "wall-clock read in a reproducible subsystem; time must come from "
        "the simulation clock or the caller",
        {"src/core/", "src/rl/", "src/env/", "src/tiersim/",
         "src/queueing/"},
        {}});
    // Scoped to src/: a CLI binary (tools/bench/examples) owns the
    // process and may legitimately report from the default registry.
    r.push_back(LineRule{
        "default-registry",
        std::regex(R"(\bdefault_registry\b)"),
        "default_registry() referenced outside src/obs/; take an "
        "obs::Registry* and resolve via obs::registry_or_default",
        {"src/"},
        {"src/obs/"}});
    r.push_back(LineRule{
        "raw-assert",
        std::regex(R"((^|[^\w])assert\s*\(|#\s*include\s*<cassert>)"),
        "raw assert in library code (vanishes under NDEBUG); use "
        "RAC_EXPECT/RAC_ENSURE/RAC_INVARIANT from util/contracts.hpp",
        {},
        {}});
    // Scoped to src/: stdout IS the product of a CLI or bench binary.
    r.push_back(LineRule{
        "iostream",
        std::regex(R"(\bstd\s*::\s*(cout|cerr|clog)\b)"),
        "direct console I/O in library code; report via return values, "
        "exceptions, or util::log",
        {"src/"},
        {"src/util/log.cpp"}});
    r.push_back(LineRule{
        "include-hygiene",
        std::regex(R"(^\s*#\s*include\s*"[^"]*\.\./)"),
        "path-traversing include; project includes are rooted at src/",
        {},
        {},
        /*match_raw=*/true});
    r.push_back(LineRule{
        "locale-io",
        std::regex(
            R"(\bstd\s*::\s*(stod|stof|stold)\b|\b(strtod|strtof|strtold|atof)\s*\(|\bsetlocale\s*\()"),
        "locale-sensitive numeric parsing (result depends on the process "
        "locale); use util/lineio parse_double/std::from_chars",
        {},
        {}});
    // Same rule id, second pattern: printf/scanf-family calls with a
    // floating-point conversion in the format string. Needs the raw line
    // (the stripper blanks string literals, taking the "%a" with it).
    r.push_back(LineRule{
        "locale-io",
        std::regex(
            R"(\b((f|s|sn|v|vf|vs|vsn)?printf|(f|s|v|vf|vs)?scanf)\s*\(.*"[^"]*%[-+ #'0-9.*]*(l|L)?[aAeEfFgG])"),
        "locale-sensitive printf/scanf float conversion (output depends on "
        "the process locale); use util/lineio format_double/std::to_chars",
        {},
        {},
        /*match_raw=*/true});
    r.push_back(LineRule{
        "unchecked-measure",
        std::regex(R"((\.|->)\s*measure\s*\()"),
        "direct Environment::measure() in the online management loop; "
        "use measure_interval() and check its `lost` flag so a lost "
        "interval degrades gracefully, or justify an offline/bootstrap "
        "probe with a suppression",
        {"src/core/"},
        {}});
    r.push_back(LineRule{
        "untracked-timer",
        std::regex(R"(\b(steady_clock|high_resolution_clock)\s*::\s*now\s*\()"),
        "raw clock read in library code; time phases with obs::ProfileScope "
        "or obs::ScopedTimer so the work shows up in bench reports, or "
        "justify with a suppression",
        {"src/"},
        {"src/obs/"}});
    r.push_back(LineRule{
        "hot-path-alloc",
        std::regex(
            R"(\bnew\b|\bmake_unique\s*<|\bmake_shared\s*<|\bunordered_(map|set)\s*<|\bstd\s*::\s*(map|set|list|multimap|multiset)\s*<)"),
        "per-element heap allocation in a hot-path subsystem (operator "
        "new, make_unique/make_shared, or a node-based container); use "
        "flat/arena storage, or justify a cold-path site with a "
        "suppression",
        {"src/queueing/", "src/tiersim/", "src/rl/"},
        {}});
    r.push_back(LineRule{
        "float-eq",
        std::regex(std::string(R"((==|!=)\s*[-+]?)") + kFloatLit + "|" +
                   kFloatLit + R"(\s*(==|!=))"),
        "exact floating-point comparison against a literal; compare with a "
        "tolerance or justify with a suppression",
        {},
        {}});
    return r;
  }();
  return rules;
}

bool rule_applies(const LineRule& rule, std::string_view relpath) {
  for (const auto& exempt : rule.except_under) {
    if (path_starts_with(relpath, exempt)) return false;
  }
  if (rule.only_under.empty()) return true;
  for (const auto& prefix : rule.only_under) {
    if (path_starts_with(relpath, prefix)) return true;
  }
  return false;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> info = {
      {"rand", "randomness outside util::Rng (determinism)"},
      {"wall-clock", "wall-clock reads in simulated subsystems"},
      {"default-registry", "default_registry() pinned outside src/obs/"},
      {"raw-assert", "assert() in library code; use contract macros"},
      {"iostream", "std::cout/cerr/clog in library code; use util::log"},
      {"pragma-once", "headers must open with #pragma once"},
      {"include-hygiene", "no path-traversing quoted includes"},
      {"locale-io", "locale-sensitive numeric I/O; use util/lineio"},
      {"untracked-timer",
       "raw steady/high_resolution clock reads in src/ outside obs/"},
      {"hot-path-alloc",
       "per-element heap allocation in src/{queueing,tiersim,rl}"},
      {"float-eq", "exact float comparison against a literal"},
      {"unchecked-measure",
       "raw measure() in src/core/; use measure_interval or suppress"},
      {"unused-suppression",
       "allow() comment that suppresses no findings; remove it"},
  };
  return info;
}

std::vector<Finding> lint_text(const std::string& relpath,
                               const std::string& contents) {
  std::vector<Finding> findings;
  const srcscan::ScanResult scanned = srcscan::scan(contents);
  srcscan::SuppressionSet suppressions(scanned.lines, "rac-lint:");
  std::istringstream in(contents);
  std::string line;
  int line_no = 0;
  bool saw_pragma_once = false;
  int first_code_line = 0;  // first non-blank, non-comment line

  while (std::getline(in, line)) {
    ++line_no;
    static const std::string kEmpty;
    const std::string& code =
        line_no <= static_cast<int>(scanned.lines.size())
            ? scanned.lines[line_no - 1].code
            : kEmpty;

    const bool blank =
        code.find_first_not_of(" \t\r") == std::string::npos;
    if (!blank && first_code_line == 0) {
      first_code_line = line_no;
      if (code.find("#pragma once") != std::string::npos) {
        saw_pragma_once = true;
      }
    }

    for (const auto& rule : line_rules()) {
      if (!rule_applies(rule, relpath)) continue;
      const std::string& target = rule.match_raw ? line : code;
      auto begin =
          std::sregex_iterator(target.begin(), target.end(), rule.pattern);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (suppressions.allowed(line_no, rule.id)) continue;
        findings.push_back(Finding{relpath, line_no, std::string(rule.id),
                                   std::string(rule.message)});
      }
    }
  }

  if (is_header(relpath) && !saw_pragma_once) {
    const int at = std::max(first_code_line, 1);
    if (!suppressions.allowed(at, "pragma-once")) {
      findings.push_back(Finding{relpath, at, "pragma-once",
                                 "header does not open with #pragma once"});
    }
  }

  // Stale suppressions fail the build so they cannot accumulate: every
  // allow() must be earning its keep on the line it annotates.
  for (const auto& [at, id] : suppressions.unused()) {
    findings.push_back(
        Finding{relpath, at, "unused-suppression",
                "suppression allow(" + id +
                    ") matched no finding on this line; remove it"});
  }
  return findings;
}

std::vector<Finding> lint_file(const std::filesystem::path& path,
                               const std::string& relpath) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("rac-lint: cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_text(relpath, buffer.str());
}

std::vector<Finding> lint_tree(const std::filesystem::path& root,
                               const std::vector<std::string>& subdirs) {
  std::vector<Finding> findings;
  for (const auto& subdir : subdirs) {
    const std::filesystem::path dir = root / subdir;
    if (std::filesystem::is_regular_file(dir)) {
      auto file_findings = lint_file(dir, subdir);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
      continue;
    }
    if (!std::filesystem::is_directory(dir)) {
      throw std::runtime_error("rac-lint: no such directory: " +
                               dir.string());
    }
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      const auto rel =
          std::filesystem::relative(file, root).generic_string();
      auto file_findings = lint_file(file, rel);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
    }
  }
  return findings;
}

std::string to_json(const std::vector<Finding>& findings) {
  std::string out = "{\"count\": " + std::to_string(findings.size()) +
                    ", \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"file\": \"";
    append_json_escaped(out, findings[i].file);
    out += "\", \"line\": " + std::to_string(findings[i].line) +
           ", \"rule\": \"";
    append_json_escaped(out, findings[i].rule);
    out += "\", \"message\": \"";
    append_json_escaped(out, findings[i].message);
    out += "\"}";
  }
  out += "]}";
  return out;
}

std::string to_text(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

}  // namespace rac::lint
