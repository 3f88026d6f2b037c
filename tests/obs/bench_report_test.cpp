// rac-bench-report v1 writer and the order-insensitive trace digest.
#include "obs/bench_report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/trace.hpp"

namespace rac::obs {
namespace {

TraceEvent event_for(int iteration, const std::string& agent) {
  TraceEvent e;
  e.iteration = iteration;
  e.agent = agent;
  e.response_ms = 100.0 + iteration;
  return e;
}

TEST(DigestTraceSink, OrderInsensitiveOverTheSameEventMultiset) {
  DigestTraceSink forward;
  DigestTraceSink backward;
  for (int i = 0; i < 8; ++i) forward.emit(event_for(i, "RAC"));
  for (int i = 7; i >= 0; --i) backward.emit(event_for(i, "RAC"));
  EXPECT_EQ(forward.count(), 8u);
  EXPECT_EQ(forward.digest(), backward.digest());

  DigestTraceSink different;
  for (int i = 0; i < 8; ++i) different.emit(event_for(i, "static"));
  EXPECT_NE(forward.digest(), different.digest());
}

TEST(DigestTraceSink, EmptyAndResetDigests) {
  DigestTraceSink sink;
  EXPECT_EQ(sink.digest(), "c0-0");
  sink.emit(event_for(0, "RAC"));
  EXPECT_NE(sink.digest(), "c0-0");
  sink.reset();
  EXPECT_EQ(sink.digest(), "c0-0");
}

BenchReport sample_report() {
  BenchReport report;
  report.bench = "bench_unit_sample";
  report.git_sha = "abc123";
  report.seed = 42;
  report.threads = 4;
  report.quick = true;
  report.wall_ms = 1234.5;
  report.trace_digest = "c8-deadbeef";
  report.hostname = "host";
  report.nproc = 8;
  report.build_type = "RelWithDebInfo";
  report.compiler = "GNU-12";
  report.phases.name = "";
  PhaseNode child;
  child.name = "core.policy_init";
  child.calls = 1;
  child.inclusive_us = 10.5;
  child.exclusive_us = 10.5;
  report.phases.children.push_back(child);
  return report;
}

TEST(BenchReportJson, CarriesSchemaRunIdAndSections) {
  const BenchReport report = sample_report();
  EXPECT_EQ(run_id(report), "abc123-bench_unit_sample-s42-t4");

  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"schema\":\"rac-bench-report v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"run_id\":\"abc123-bench_unit_sample-s42-t4\""),
            std::string::npos);
  EXPECT_NE(json.find("\"quick\":true"), std::string::npos);
  for (const char* key : {"bench", "git_sha", "seed", "threads", "wall_ms",
                          "trace_digest", "host", "process", "phases",
                          "metrics"}) {
    EXPECT_NE(json.find(std::string("\"").append(key).append("\":")),
              std::string::npos)
        << key;
  }
  EXPECT_NE(json.find("\"core.policy_init\""), std::string::npos);
  // Cheap well-formedness: balanced braces/brackets/quotes.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(BenchReportJson, ByteStableForIdenticalInputs) {
  EXPECT_EQ(to_json(sample_report()), to_json(sample_report()));
}

TEST(BenchReportWrite, WritesDirSlashBenchDotJson) {
  const std::string dir = ::testing::TempDir();
  const BenchReport report = sample_report();
  write_bench_report(dir, report);
  const std::string path = dir + "/bench_unit_sample.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), to_json(report) + "\n");  // one newline-terminated doc
  std::remove(path.c_str());
}

TEST(BenchReportWrite, CreatesTheReportDirectoryWhenMissing) {
  // RAC_BENCH_REPORT may point at a directory that does not exist yet.
  const std::string dir = ::testing::TempDir() + "/rac-nested/reports";
  const BenchReport report = sample_report();
  write_bench_report(dir, report);
  std::ifstream in(dir + "/bench_unit_sample.json");
  ASSERT_TRUE(in.good()) << dir;
  std::remove((dir + "/bench_unit_sample.json").c_str());
}

TEST(BenchReportGitSha, DiscoversTheCheckoutHead) {
  // The compiled-in source dir points at this repository; HEAD must
  // resolve to a 40-hex commit in any normal checkout. "unknown" is the
  // contract for exotic states, not an expected outcome here.
  const std::string sha = discover_git_sha();
  ASSERT_EQ(sha.size(), 40u) << sha;
  EXPECT_TRUE(std::all_of(sha.begin(), sha.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  })) << sha;
}

// The host fingerprint gates wall-clock comparisons; a report without its
// compiler matches a baseline built by any other compiler.
TEST(BenchReportHost, FillHostMetadataStampsTheCompiler) {
  BenchReport report;
  fill_host_metadata(report);
  EXPECT_FALSE(report.compiler.empty());
  EXPECT_NE(report.compiler, "unknown");
  EXPECT_NE(to_json(report).find("\"compiler\":\"" + report.compiler + "\""),
            std::string::npos);
}

TEST(BenchReportGitSha, UnknownForNonRepositoryDirectory) {
  EXPECT_EQ(discover_git_sha("/nonexistent/definitely/not/a/repo"),
            "unknown");
}

}  // namespace
}  // namespace rac::obs
