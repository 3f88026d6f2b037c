#include "util/log.hpp"

#include <ctime>
#include <iostream>
#include <mutex>

namespace rac::util {

namespace {
// One mutex guards the sink pointer and the write itself: a sink swap
// cannot race a log call, and concurrent log lines cannot interleave.
std::mutex g_mutex;
LogSink g_sink;  // empty = stderr

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}
}  // namespace

void set_log_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_sink = std::move(sink);
}

namespace detail {

void warn(const std::string& message) {
  std::string line = "[";
  line += utc_timestamp();
  line += "] [WARN] ";
  line += message;

  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sink) {
    g_sink(line);
  } else {
    std::cerr << line << '\n';
  }
}

}  // namespace detail

}  // namespace rac::util
