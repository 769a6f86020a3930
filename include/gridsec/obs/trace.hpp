// Scoped spans: the self-profiler's phase markers.
//
// Every GRIDSEC_TRACE_SPAN site names one phase of the pipeline. While
// obs::Profiler is enabled (see obs/prof.hpp), a span pushes a frame on
// the profiler's per-thread call stack when it opens and pops it when it
// closes; the capture decision is made at open, so a span opened while
// the profiler was off records nothing even if it closes while on.
//
// Cost model:
//   * profiler disabled (the default): a span construction is one relaxed
//     atomic load and a branch — below the noise floor of any solve;
//   * GRIDSEC_NO_OBS defined: spans compile to nothing at all.
//
// Usage:
//   { GRIDSEC_TRACE_SPAN("core.game.play"); ... }   // or obs::TraceSpan
#pragma once

namespace gridsec::obs {

#ifndef GRIDSEC_NO_OBS

/// RAII span. `name` must outlive the span (string literals do).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool prof_;  // profiler was enabled at open
};

#define GRIDSEC_OBS_CONCAT_INNER(a, b) a##b
#define GRIDSEC_OBS_CONCAT(a, b) GRIDSEC_OBS_CONCAT_INNER(a, b)
#define GRIDSEC_TRACE_SPAN(name)  \
  ::gridsec::obs::TraceSpan GRIDSEC_OBS_CONCAT(gridsec_trace_span_, \
                                               __LINE__)(name)

#else  // GRIDSEC_NO_OBS: everything compiles away.

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
};

#define GRIDSEC_TRACE_SPAN(name) \
  do {                           \
  } while (false)

#endif  // GRIDSEC_NO_OBS

}  // namespace gridsec::obs
