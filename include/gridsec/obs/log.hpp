// Leveled, structured JSONL logging for the whole pipeline.
//
// Every record is one JSON object on one line:
//   {"ts":"2026-08-06T12:00:00.123Z","level":"warn","component":"lp.simplex",
//    "msg":"solve degraded","status":"TIME_LIMIT","pivots":412}
//
// Design goals, in order:
//   1. Near-zero cost when silent. A suppressed record is one relaxed
//      atomic load plus a branch (the level gate runs before any argument
//      is evaluated); `-DGRIDSEC_NO_OBS=ON` compiles every call site
//      out entirely.
//   2. Lock-light. The record line is formatted entirely on the calling
//      thread; the logger mutex is held only to move the finished string
//      into the ring buffer and mirror it to stderr when asked.
//   3. Always diagnosable after the fact. Even with stderr off,
//      the last `Logger::kDefaultRingCapacity` records are retained in a
//      ring buffer; obs::audit embeds that tail in every audit bundle, so
//      a failed solve carries its own recent history.
//
// Configuration:
//   * `GRIDSEC_LOG_LEVEL` env var (trace|debug|info|warn|error|off)
//     overrides the compiled default (info) at first use;
//   * `GRIDSEC_LOG_STDERR=1` env var (or Logger::set_stderr_sink) mirrors
//     records to stderr.
//
// Usage (the macro argument is the bare level name):
//   GRIDSEC_LOG(kWarn, "lp.simplex")
//       .field("status", to_string(sol.status))
//       .field("pivots", sol.iterations)
//       .message("solve degraded");
// The record is emitted when the temporary dies at the end of the
// statement; .message() is optional.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gridsec::obs {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,  // threshold only; records cannot be emitted at kOff
};

/// Stable lowercase name ("trace", ..., "off").
std::string_view to_string(LogLevel level);
/// Parses a (case-insensitive) level name; false on unknown input.
bool parse_log_level(std::string_view text, LogLevel* out);

#ifndef GRIDSEC_NO_OBS

/// Process-global logger state. All static; the singleton lives in log.cpp
/// and is intentionally leaked so worker threads may log during teardown.
class Logger {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 256;

  /// True when `level` passes the current threshold. One relaxed atomic
  /// load — this is the hot-path gate the GRIDSEC_LOG macro runs first.
  [[nodiscard]] static bool enabled(LogLevel level);

  /// Threshold control. The first call to any Logger entry point applies
  /// the GRIDSEC_LOG_LEVEL env override; set_level wins afterwards.
  static void set_level(LogLevel level);
  [[nodiscard]] static LogLevel level();

  /// Mirrors records to stderr (also armed by GRIDSEC_LOG_STDERR=1).
  static void set_stderr_sink(bool enabled);

  /// The most recent records (JSONL lines, oldest first), at most
  /// `max_records` (0 = the whole ring). Thread-safe snapshot.
  [[nodiscard]] static std::vector<std::string> tail(
      std::size_t max_records = 0);
  /// Records emitted since process start (ring overwrites included).
  [[nodiscard]] static std::uint64_t records_emitted();
  /// Drops buffered records and zeroes nothing else (threshold and stderr sink keep).
  static void reset_ring();

  /// Takes ownership of a fully formatted record line (no trailing
  /// newline). Called by LogEvent; exposed for tests.
  static void emit(LogLevel level, std::string line);
};

/// Builder for one record; formats into a local string and hands the
/// finished line to Logger::emit on destruction. Construct only through
/// GRIDSEC_LOG so suppressed levels never reach the constructor.
class LogEvent {
 public:
  LogEvent(LogLevel level, std::string_view component);
  ~LogEvent();
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& field(std::string_view key, std::string_view value);
  LogEvent& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  LogEvent& field(std::string_view key, double value);
  LogEvent& field(std::string_view key, bool value);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  LogEvent& field(std::string_view key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return int_field(key, static_cast<std::int64_t>(value));
    } else {
      return uint_field(key, static_cast<std::uint64_t>(value));
    }
  }
  /// Human-readable summary, emitted as the "msg" field. Optional.
  LogEvent& message(std::string_view msg);

 private:
  LogEvent& int_field(std::string_view key, std::int64_t value);
  LogEvent& uint_field(std::string_view key, std::uint64_t value);

  LogLevel level_;
  std::string line_;  // partially built record
  std::string msg_;
};

// The level gate runs before the LogEvent exists, so a suppressed call
// site never formats anything. The dangling-else shape keeps the macro a
// single statement usable inside unbraced if/else.
#define GRIDSEC_LOG(lvl, component)                                        \
  if (!::gridsec::obs::Logger::enabled(::gridsec::obs::LogLevel::lvl)) {   \
  } else                                                                   \
    ::gridsec::obs::LogEvent(::gridsec::obs::LogLevel::lvl, (component))

#else  // GRIDSEC_NO_OBS: every call site compiles to nothing.

class Logger {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 0;
  [[nodiscard]] static bool enabled(LogLevel) { return false; }
  static void set_level(LogLevel) {}
  [[nodiscard]] static LogLevel level() { return LogLevel::kOff; }
  static void set_stderr_sink(bool) {}
  [[nodiscard]] static std::vector<std::string> tail(std::size_t = 0) {
    return {};
  }
  [[nodiscard]] static std::uint64_t records_emitted() { return 0; }
  static void reset_ring() {}
  static void emit(LogLevel, std::string) {}
};

class LogEvent {
 public:
  LogEvent(LogLevel, std::string_view) {}
  template <typename K, typename V>
  LogEvent& field(K&&, V&&) { return *this; }
  LogEvent& message(std::string_view) { return *this; }
};

#define GRIDSEC_LOG(lvl, component) \
  if (true) {                       \
  } else                            \
    ::gridsec::obs::LogEvent(::gridsec::obs::LogLevel::lvl, (component))

#endif  // GRIDSEC_NO_OBS

}  // namespace gridsec::obs
