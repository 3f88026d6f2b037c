#include "obs/bench_report.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>
#include <thread>

#include "util/lineio.hpp"

#ifndef RAC_BUILD_TYPE
#define RAC_BUILD_TYPE "unknown"
#endif
#ifndef RAC_COMPILER_ID
#define RAC_COMPILER_ID "unknown"
#endif
#ifndef RAC_SOURCE_DIR
#define RAC_SOURCE_DIR ""
#endif

namespace rac::obs {

namespace {

std::string trimmed(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool looks_like_sha(const std::string& s) {
  if (s.size() < 7 || s.size() > 64) return false;
  for (const char c : s) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string read_first_line(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  if (!is || !std::getline(is, line)) return "";
  return trimmed(line);
}

// Resolve a symbolic ref ("refs/heads/main") to a sha via the loose ref
// file or, failing that, .git/packed-refs.
std::string resolve_ref(const std::string& git_dir, const std::string& ref) {
  const std::string loose = read_first_line(git_dir + "/" + ref);
  if (looks_like_sha(loose)) return loose;
  std::ifstream packed(git_dir + "/packed-refs");
  std::string line;
  while (packed && std::getline(packed, line)) {
    line = trimmed(line);
    if (line.empty() || line[0] == '#' || line[0] == '^') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    if (line.substr(space + 1) == ref && looks_like_sha(line.substr(0, space))) {
      return line.substr(0, space);
    }
  }
  return "";
}

// Minimal JSON string escaping: quote, backslash, control characters.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string discover_git_sha(const std::string& source_dir) {
  const std::string root = source_dir.empty() ? RAC_SOURCE_DIR : source_dir;
  if (root.empty()) return "unknown";
  const std::string git_dir = root + "/.git";
  const std::string head = read_first_line(git_dir + "/HEAD");
  if (head.empty()) return "unknown";
  if (looks_like_sha(head)) return head;  // detached HEAD
  constexpr std::string_view kRefPrefix = "ref: ";
  if (head.rfind(kRefPrefix, 0) != 0) return "unknown";
  const std::string sha =
      resolve_ref(git_dir, trimmed(head.substr(kRefPrefix.size())));
  return sha.empty() ? "unknown" : sha;
}

void fill_host_metadata(BenchReport& report) {
  report.git_sha = discover_git_sha();
  char buf[256] = {};
  report.hostname =
      gethostname(buf, sizeof(buf) - 1) == 0 ? buf : "unknown";
  report.nproc = std::thread::hardware_concurrency();
  report.build_type = RAC_BUILD_TYPE;
  report.compiler = RAC_COMPILER_ID;
  // An instrumented binary is a different "host" for wall-clock purposes:
  // tagging the fingerprint makes the trajectory gate skip its wall gates
  // (digest and exit-code checks still run) instead of failing on
  // sanitizer or audit slowdown measured against an uninstrumented
  // baseline.
#if defined(__SANITIZE_ADDRESS__)
#define RAC_HOST_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define RAC_HOST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RAC_HOST_ASAN 1
#elif __has_feature(thread_sanitizer)
#define RAC_HOST_TSAN 1
#endif
#endif
#if defined(RAC_HOST_ASAN)
  report.build_type += "+asan";
#elif defined(RAC_HOST_TSAN)
  report.build_type += "+tsan";
#endif
#if defined(RAC_AUDIT_ENABLED)
  report.build_type += "+audit";
#endif
  report.process = process_stats();
}

std::string run_id(const BenchReport& report) {
  return report.git_sha + "-" + report.bench + "-s" +
         util::format_u64(report.seed) + "-t" +
         util::format_u64(report.threads);
}

std::string to_json(const BenchReport& report) {
  std::string out;
  out += "{\"schema\":\"rac-bench-report v1\"";
  out += ",\"bench\":\"" + json_escape(report.bench) + "\"";
  out += ",\"run_id\":\"" + json_escape(run_id(report)) + "\"";
  out += ",\"git_sha\":\"" + json_escape(report.git_sha) + "\"";
  out += ",\"seed\":" + util::format_u64(report.seed);
  out += ",\"threads\":" + util::format_u64(report.threads);
  out += ",\"quick\":";
  out += report.quick ? "true" : "false";
  out += ",\"wall_ms\":" + util::format_double_decimal(report.wall_ms);
  out += ",\"trace_digest\":\"" + json_escape(report.trace_digest) + "\"";
  out += ",\"host\":{\"nproc\":" + util::format_u64(report.nproc);
  out += ",\"hostname\":\"" + json_escape(report.hostname) + "\"";
  out += ",\"build_type\":\"" + json_escape(report.build_type) + "\"";
  out += ",\"compiler\":\"" + json_escape(report.compiler) + "\"}";
  out += ",\"process\":{\"peak_rss_bytes\":" +
         util::format_u64(report.process.peak_rss_bytes);
  out += ",\"alloc_count\":" + util::format_u64(report.process.alloc_count);
  out += ",\"alloc_bytes\":" + util::format_u64(report.process.alloc_bytes);
  out += ",\"alloc_hook_compiled\":";
  out += report.process.alloc_hook_compiled ? "true" : "false";
  out += "}";
  out += ",\"phases\":" + obs::to_json(report.phases);
  out += ",\"metrics\":" + report.metrics.to_json();
  out += "}";
  return out;
}

void write_bench_report(const std::string& dir, const BenchReport& report) {
  // RAC_BENCH_REPORT may name a directory that does not exist yet;
  // create it (and parents) rather than failing the whole session.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  util::atomic_write_file(dir + "/" + report.bench + ".json",
                          to_json(report) + "\n");
}

}  // namespace rac::obs
