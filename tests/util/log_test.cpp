#include "util/log.hpp"

#include <gtest/gtest.h>

#include <regex>
#include <thread>
#include <vector>

namespace rac::util {
namespace {

// Every test restores the default stderr destination.
class LogTest : public ::testing::Test {
 protected:
  void TearDown() override { set_log_sink(nullptr); }
};

TEST_F(LogTest, SinkReceivesFormattedLines) {
  std::vector<std::string> captured;
  set_log_sink([&](const std::string& line) { captured.push_back(line); });
  log_warn("RAC_THREADS='", 0, "' is not a positive integer");
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(
      captured[0].find("[WARN] RAC_THREADS='0' is not a positive integer"),
      std::string::npos);
}

TEST_F(LogTest, LinesStartWithUtcTimestamp) {
  std::string captured;
  set_log_sink([&](const std::string& line) { captured = line; });
  log_warn("SLA violation streak");
  const std::regex prefix(
      R"(^\[\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z\] \[WARN\] )");
  EXPECT_TRUE(std::regex_search(captured, prefix)) << captured;
}

TEST_F(LogTest, NullSinkRestoresDefault) {
  int calls = 0;
  set_log_sink([&](const std::string&) { ++calls; });
  ::testing::internal::CaptureStderr();
  log_warn("to sink");
  EXPECT_EQ(calls, 1);
  set_log_sink(nullptr);
  // Goes to stderr now; the captured count must not move.
  log_warn("to stderr");
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stderr_text.find("to sink"), std::string::npos) << stderr_text;
  EXPECT_NE(stderr_text.find("] [WARN] to stderr\n"), std::string::npos)
      << stderr_text;
}

TEST_F(LogTest, ConcurrentLoggingDeliversEveryLineIntact) {
  std::vector<std::string> lines;
  set_log_sink([&](const std::string& line) {
    lines.push_back(line);  // serialized by the logger's mutex
  });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        log_warn("thread-", t, " line-", i);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& line : lines) {
    EXPECT_NE(line.find("] [WARN] thread-"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace rac::util
