// Minimal leveled logger.
//
// Only Warn and above are emitted, so tests and benchmarks stay quiet.
#pragma once

#include <sstream>
#include <string>

namespace pdr {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Returns the minimum level actually emitted.
LogLevel log_level();

/// Emits one line at `level` with a "[level] tag: " prefix to stderr.
void log_line(LogLevel level, const std::string& tag, const std::string& message);

namespace detail {

class LogStream {
 public:
  LogStream(LogLevel level, std::string tag) : level_(level), tag_(std::move(tag)) {}
  ~LogStream() { log_line(level_, tag_, out_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string tag_;
  std::ostringstream out_;
};

}  // namespace detail

}  // namespace pdr

#define PDR_LOG(level, tag) ::pdr::detail::LogStream((level), (tag))
#define PDR_INFO(tag) PDR_LOG(::pdr::LogLevel::Info, (tag))
#define PDR_DEBUG(tag) PDR_LOG(::pdr::LogLevel::Debug, (tag))
#define PDR_WARN(tag) PDR_LOG(::pdr::LogLevel::Warn, (tag))
