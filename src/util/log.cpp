#include "util/log.hpp"

#include <iostream>
#include <mutex>

namespace pdr {
namespace {

constexpr LogLevel kMinLevel = LogLevel::Warn;
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "trace";
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return kMinLevel; }

void log_line(LogLevel level, const std::string& tag, const std::string& message) {
  if (level < log_level()) return;
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::cerr << "[" << level_name(level) << "] " << tag << ": " << message << "\n";
}

}  // namespace pdr
