// Scoped tracing: RAII spans recorded into thread-local buffers and
// exported in Chrome trace-event JSON ("complete" events, ph:"X"), so a
// whole `defend` run can be opened in Perfetto or chrome://tracing.
//
// Cost model:
//   * tracing disabled (the default): a span construction is one relaxed
//     atomic load and a branch — below the noise floor of any solve;
//   * GRIDSEC_NO_OBS defined: spans compile to nothing at all;
//   * tracing enabled: one steady_clock read at open, one read plus a
//     push onto a thread-local vector (per-buffer mutex, uncontended —
//     only the exporter ever takes it from another thread) at close.
//
// Usage:
//   obs::Tracer::start();
//   { GRIDSEC_TRACE_SPAN("core.game.play"); ... }   // or obs::TraceSpan
//   obs::Tracer::stop();
//   obs::Tracer::write_chrome_json(file);
//
// Buffers survive thread exit (shared ownership), so spans recorded on
// ThreadPool workers are exported even after the pool is destroyed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace gridsec::obs {

#ifndef GRIDSEC_NO_OBS

/// Global capture control + export. All static; the singleton state lives
/// in trace.cpp and is intentionally leaked.
class Tracer {
 public:
  /// Enables span capture. Spans already open stay un-recorded (capture
  /// decisions are made at span open).
  static void start();
  /// Disables capture; already-recorded events are kept for export.
  static void stop();
  [[nodiscard]] static bool enabled();
  /// Discards every recorded event (capture state unchanged).
  static void reset();
  /// Number of completed spans recorded so far (all threads).
  [[nodiscard]] static std::size_t event_count();
  /// Writes a Chrome trace-event JSON array, one {"name","ph":"X","ts",
  /// "dur","pid","tid"} object per completed span, ts/dur in microseconds.
  static void write_chrome_json(std::ostream& os);
};

/// RAII span: records [open, close) as one complete event when tracing was
/// enabled at open. `name` must outlive the span (string literals do).
///
/// Spans are also the profiler's phase markers: when obs::Profiler is
/// enabled (see obs/prof.hpp), every span open/close additionally pushes/
/// pops a frame on the profiler's per-thread call stack. At runtime the two
/// captures are independent — either can be on without the other; at
/// compile time GRIDSEC_NO_OBS removes both together.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;      // nullptr = inactive (tracing was off at open)
  std::uint64_t open_ns_;
  bool prof_ = false;     // profiler was enabled at open
};

#define GRIDSEC_OBS_CONCAT_INNER(a, b) a##b
#define GRIDSEC_OBS_CONCAT(a, b) GRIDSEC_OBS_CONCAT_INNER(a, b)
#define GRIDSEC_TRACE_SPAN(name)  \
  ::gridsec::obs::TraceSpan GRIDSEC_OBS_CONCAT(gridsec_trace_span_, \
                                               __LINE__)(name)

#else  // GRIDSEC_NO_OBS: everything compiles away.

class Tracer {
 public:
  static void start() {}
  static void stop() {}
  [[nodiscard]] static bool enabled() { return false; }
  static void reset() {}
  [[nodiscard]] static std::size_t event_count() { return 0; }
  static void write_chrome_json(std::ostream& os);  // writes "[]"
};

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
};

#define GRIDSEC_TRACE_SPAN(name) \
  do {                           \
  } while (false)

#endif  // GRIDSEC_NO_OBS

}  // namespace gridsec::obs
