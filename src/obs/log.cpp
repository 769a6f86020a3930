#include "gridsec/obs/log.hpp"

#include <string>

namespace gridsec::obs {

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "unknown";
}

bool parse_log_level(std::string_view text, LogLevel* out) {
  std::string lower(text);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  for (const LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (lower == to_string(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

}  // namespace gridsec::obs

#ifndef GRIDSEC_NO_OBS

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "gridsec/obs/metrics.hpp"
#include "json.hpp"

namespace gridsec::obs {
namespace {

// Millisecond-resolution UTC timestamp; the report manifest uses seconds,
// but log records need sub-second ordering within one solve.
std::string utc_now_iso8601_ms() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[40];
  const std::size_t n =
      std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm);
  std::snprintf(buf + n, sizeof(buf) - n, ".%03dZ", static_cast<int>(ms));
  return buf;
}

LogLevel level_from_env_or(LogLevel fallback) {
  const char* env = std::getenv("GRIDSEC_LOG_LEVEL");
  if (env == nullptr) return fallback;
  LogLevel parsed;
  if (!parse_log_level(env, &parsed)) return fallback;
  return parsed;
}

bool stderr_from_env() {
  const char* env = std::getenv("GRIDSEC_LOG_STDERR");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

struct LoggerState {
  // Hot-path gate; everything else is cold and sits behind the mutex.
  std::atomic<int> threshold;

  std::mutex mu;
  std::deque<std::string> ring;  // oldest first, bounded by ring capacity
  std::uint64_t emitted = 0;
  bool stderr_sink;

  LoggerState()
      : threshold(static_cast<int>(level_from_env_or(LogLevel::kInfo))),
        stderr_sink(stderr_from_env()) {}
};

LoggerState& state() {
  // Leaked on purpose: detached/worker threads may log during static
  // destruction, and an intact logger beats a destructed one.
  static LoggerState* s = new LoggerState();
  return *s;
}

}  // namespace

bool Logger::enabled(LogLevel level) {
  return static_cast<int>(level) >=
             state().threshold.load(std::memory_order_relaxed) &&
         level != LogLevel::kOff;
}

void Logger::set_level(LogLevel level) {
  state().threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel Logger::level() {
  return static_cast<LogLevel>(
      state().threshold.load(std::memory_order_relaxed));
}

void Logger::set_stderr_sink(bool enabled) {
  LoggerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.stderr_sink = enabled;
}

std::vector<std::string> Logger::tail(std::size_t max_records) {
  LoggerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::size_t n = s.ring.size();
  if (max_records != 0 && max_records < n) n = max_records;
  return std::vector<std::string>(s.ring.end() - static_cast<long>(n),
                                  s.ring.end());
}

std::uint64_t Logger::records_emitted() {
  LoggerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.emitted;
}

void Logger::reset_ring() {
  LoggerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.ring.clear();
}

void Logger::emit(LogLevel level, std::string line) {
  static Counter& records = default_registry().counter("obs.log.records");
  static Counter& errors = default_registry().counter("obs.log.records.error");
  records.add();
  if (level >= LogLevel::kError) errors.add();

  LoggerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  ++s.emitted;
  if (s.stderr_sink) std::cerr << line << '\n';
  s.ring.push_back(std::move(line));
  while (s.ring.size() > kDefaultRingCapacity) s.ring.pop_front();
}

LogEvent::LogEvent(LogLevel level, std::string_view component)
    : level_(level) {
  std::ostringstream os;
  os << "{\"ts\":\"" << utc_now_iso8601_ms() << "\",\"level\":\""
     << to_string(level) << "\",\"component\":";
  json::write_string(os, std::string(component));
  line_ = os.str();
}

LogEvent::~LogEvent() {
  std::ostringstream os;
  os << line_;
  if (!msg_.empty()) {
    os << ",\"msg\":";
    json::write_string(os, msg_);
  }
  os << '}';
  Logger::emit(level_, os.str());
}

LogEvent& LogEvent::field(std::string_view key, std::string_view value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, std::string(key));
  os << ':';
  json::write_string(os, std::string(value));
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::field(std::string_view key, double value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, std::string(key));
  os << ':';
  json::write_number(os, value);
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::int_field(std::string_view key, std::int64_t value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, std::string(key));
  os << ':' << value;
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::uint_field(std::string_view key, std::uint64_t value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, std::string(key));
  os << ':' << value;
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::field(std::string_view key, bool value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, std::string(key));
  os << ':' << (value ? "true" : "false");
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::message(std::string_view msg) {
  msg_ = std::string(msg);
  return *this;
}

}  // namespace gridsec::obs

#endif  // GRIDSEC_NO_OBS
