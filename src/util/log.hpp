// Warning logger.
//
// Libraries in this repo report through return values, exceptions and the
// obs metrics and decision trace; the logger carries only warnings an
// operator must see on stderr although the run goes on -- today the one
// `default_thread_count` prints for a malformed RAC_THREADS.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace rac::util {

/// Receives each formatted line ("[<UTC timestamp>] [WARN] message", no
/// trailing newline).
using LogSink = std::function<void(const std::string&)>;

/// Replace the destination of log lines (default: stderr). Pass nullptr to
/// restore the default. Tests install a capturing sink to assert on
/// warnings without scraping stderr.
void set_log_sink(LogSink sink);

namespace detail {
/// Emit one line as "[2009-06-22T12:00:00Z] [WARN] message". Thread-safe:
/// formatting, the sink call, and the stderr write happen under one mutex,
/// so concurrent warnings cannot interleave.
void warn(const std::string& message);

template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_warn(Args&&... args) {
  detail::warn(detail::concat(std::forward<Args>(args)...));
}

}  // namespace rac::util
