#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace rac::obs {
namespace {

TraceEvent sample_event() {
  TraceEvent event;
  event.iteration = 3;
  event.agent = "RAC";
  event.state = {150, 15, 5};
  event.action = "inc MaxClients";
  event.explored = true;
  event.q_value = 8.25;
  event.response_ms = 432.1;
  event.throughput_rps = 25.5;
  event.reward = 0.5679;
  event.sla_margin_ms = 567.9;
  event.active_policy = 1;
  event.policy_switched = true;
  event.violation = true;
  event.consecutive_violations = 2;
  event.context = "shopping/Level-1";
  return event;
}

TEST(ToJson, RendersEveryField) {
  const std::string json = to_json(sample_event());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"iteration\":3"), std::string::npos);
  EXPECT_NE(json.find("\"agent\":\"RAC\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":[150,15,5]"), std::string::npos);
  EXPECT_NE(json.find("\"action\":\"inc MaxClients\""), std::string::npos);
  EXPECT_NE(json.find("\"explored\":true"), std::string::npos);
  EXPECT_NE(json.find("\"q_value\":8.25"), std::string::npos);
  EXPECT_NE(json.find("\"active_policy\":1"), std::string::npos);
  EXPECT_NE(json.find("\"policy_switched\":true"), std::string::npos);
  EXPECT_NE(json.find("\"violation\":true"), std::string::npos);
  EXPECT_NE(json.find("\"consecutive_violations\":2"), std::string::npos);
  EXPECT_NE(json.find("\"context\":\"shopping/Level-1\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must be one line";
}

TEST(ToJson, EscapesStrings) {
  TraceEvent event;
  event.agent = "a\"b\\c\n\td";
  const std::string json = to_json(event);
  EXPECT_NE(json.find("\"agent\":\"a\\\"b\\\\c\\n\\td\""), std::string::npos);
  // Control characters become \u00XX escapes.
  event.agent = std::string("x") + '\x01' + "y";
  EXPECT_NE(to_json(event).find("\"x\\u0001y\""), std::string::npos);
}

TEST(MemorySink, CollectsAndClears) {
  MemoryTraceSink sink;
  EXPECT_EQ(sink.size(), 0u);
  sink.emit(sample_event());
  sink.emit(sample_event());
  EXPECT_EQ(sink.size(), 2u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].agent, "RAC");
  EXPECT_EQ(events[1].state, (std::vector<int>{150, 15, 5}));
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(JsonlSink, WritesOneLinePerEvent) {
  const std::string path = ::testing::TempDir() + "rac_trace_test.jsonl";
  {
    JsonlTraceSink sink(path);
    EXPECT_EQ(sink.path(), path);
    sink.emit(sample_event());
    TraceEvent second = sample_event();
    second.iteration = 4;
    sink.emit(second);
    sink.flush();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(JsonlSink, ThrowsWhenUnopenable) {
  EXPECT_THROW(JsonlTraceSink("/nonexistent-dir/x/y/z.jsonl"),
               std::runtime_error);
}

TEST(TeeSink, FansOutToAllSinks) {
  MemoryTraceSink a;
  MemoryTraceSink b;
  TeeTraceSink tee({&a, &b});
  tee.emit(sample_event());
  tee.flush();
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);

  // An empty tee is the null sink: it drops every event harmlessly.
  TeeTraceSink empty({});
  empty.emit(sample_event());
  empty.flush();
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(SinkFromEnv, NullWhenUnsetJsonlWhenSet) {
  ::unsetenv("RAC_TRACE_TEST_VAR");
  EXPECT_EQ(sink_from_env("RAC_TRACE_TEST_VAR"), nullptr);
  ::setenv("RAC_TRACE_TEST_VAR", "", 1);
  EXPECT_EQ(sink_from_env("RAC_TRACE_TEST_VAR"), nullptr);

  const std::string path = ::testing::TempDir() + "rac_trace_env_test.jsonl";
  ::setenv("RAC_TRACE_TEST_VAR", path.c_str(), 1);
  auto sink = sink_from_env("RAC_TRACE_TEST_VAR");
  ASSERT_NE(sink, nullptr);
  auto* jsonl = dynamic_cast<JsonlTraceSink*>(sink.get());
  ASSERT_NE(jsonl, nullptr);
  EXPECT_EQ(jsonl->path(), path);
  sink.reset();
  std::remove(path.c_str());
  ::unsetenv("RAC_TRACE_TEST_VAR");
}

}  // namespace
}  // namespace rac::obs
