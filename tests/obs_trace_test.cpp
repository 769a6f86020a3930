// Tracer: capture gating, span nesting/ordering in the exported Chrome
// trace JSON, and multi-thread buffers.
//
// Tracer state is process-global, so every test begins with reset() and
// ends with stop(); tests in this binary run sequentially.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/obs/trace.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace gridsec::obs {
namespace {

// Minimal extraction of one numeric/string field per event object. The
// exported JSON is machine-written with a fixed key order, so scanning for
// `"key":` inside each line-delimited object is reliable.
#ifndef GRIDSEC_NO_OBS
struct ParsedEvent {
  std::string name;
  long ts = 0;
  long dur = 0;
  long tid = 0;
};

std::vector<ParsedEvent> parse_events(const std::string& json) {
  std::vector<ParsedEvent> out;
  std::size_t pos = 0;
  while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
    ParsedEvent ev;
    const std::size_t name_start = pos + 9;
    const std::size_t name_end = json.find('"', name_start);
    ev.name = json.substr(name_start, name_end - name_start);
    const auto field = [&](const char* key) -> long {
      const std::size_t k = json.find(key, pos);
      return std::stol(json.substr(k + std::strlen(key)));
    };
    ev.ts = field("\"ts\":");
    ev.dur = field("\"dur\":");
    ev.tid = field("\"tid\":");
    out.push_back(ev);
    pos = name_end;
  }
  return out;
}
#endif  // GRIDSEC_NO_OBS

std::string export_json() {
  std::ostringstream os;
  Tracer::write_chrome_json(os);
  return os.str();
}

TEST(Tracer, DisabledByDefaultRecordsNothing) {
  Tracer::reset();
  Tracer::stop();
  {
    GRIDSEC_TRACE_SPAN("t.ignored");
  }
  EXPECT_EQ(Tracer::event_count(), 0u);
  EXPECT_EQ(export_json(), "[]\n");
}

#ifdef GRIDSEC_NO_OBS

// With tracing compiled out, start() must stay inert and the export empty.
TEST(Tracer, CompiledOutIsAlwaysEmpty) {
  Tracer::start();
  {
    GRIDSEC_TRACE_SPAN("t.compiled_out");
  }
  Tracer::stop();
  EXPECT_FALSE(Tracer::enabled());
  EXPECT_EQ(Tracer::event_count(), 0u);
  EXPECT_EQ(export_json(), "[]\n");
}

#else  // capture-dependent tests below need real tracing compiled in

TEST(Tracer, NestedSpansExportWithContainment) {
  Tracer::reset();
  Tracer::start();
  {
    GRIDSEC_TRACE_SPAN("t.outer");
    {
      GRIDSEC_TRACE_SPAN("t.inner");
    }
    {
      GRIDSEC_TRACE_SPAN("t.inner2");
    }
  }
  Tracer::stop();
  ASSERT_EQ(Tracer::event_count(), 3u);
  const auto evs = parse_events(export_json());
  ASSERT_EQ(evs.size(), 3u);
  const auto find = [&](const std::string& n) {
    return *std::find_if(evs.begin(), evs.end(),
                         [&](const ParsedEvent& e) { return e.name == n; });
  };
  const ParsedEvent outer = find("t.outer");
  const ParsedEvent inner = find("t.inner");
  const ParsedEvent inner2 = find("t.inner2");
  // Containment: children open after and close before the parent. ts/dur
  // are truncated to whole microseconds, so end-time sums carry up to 2us
  // of rounding slack.
  constexpr long kSlackUs = 2;
  EXPECT_GE(inner.ts, outer.ts);
  EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur + kSlackUs);
  EXPECT_GE(inner2.ts, outer.ts);
  EXPECT_LE(inner2.ts + inner2.dur, outer.ts + outer.dur + kSlackUs);
  // Ordering: inner closed before inner2 opened.
  EXPECT_LE(inner.ts + inner.dur, inner2.ts + kSlackUs);
  // All on the same thread.
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_EQ(inner2.tid, outer.tid);
}

TEST(Tracer, SpanOpenedWhileDisabledIsNotRecorded) {
  Tracer::reset();
  Tracer::stop();
  {
    TraceSpan s("t.straddle");  // opened while off
    Tracer::start();
  }  // closes while on — still must not record
  Tracer::stop();
  EXPECT_EQ(Tracer::event_count(), 0u);
}

TEST(Tracer, WorkerThreadSpansGetDistinctTids) {
  Tracer::reset();
  Tracer::start();
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 8; ++i) {
      futs.push_back(pool.submit([] { GRIDSEC_TRACE_SPAN("t.worker"); }));
    }
    for (auto& f : futs) f.get();
  }
  Tracer::stop();
  // Buffers must survive pool destruction.
  const auto evs = parse_events(export_json());
  std::size_t workers = 0;
  std::vector<long> tids;
  for (const auto& e : evs) {
    if (e.name == "t.worker") {
      ++workers;
      tids.push_back(e.tid);
    }
  }
  EXPECT_EQ(workers, 8u);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_GE(tids.size(), 1u);
  EXPECT_LE(tids.size(), 2u);
}

TEST(Tracer, ResetDiscardsEventsButKeepsCaptureState) {
  Tracer::reset();
  Tracer::start();
  {
    GRIDSEC_TRACE_SPAN("t.pre");
  }
  EXPECT_EQ(Tracer::event_count(), 1u);
  Tracer::reset();
  EXPECT_EQ(Tracer::event_count(), 0u);
  EXPECT_TRUE(Tracer::enabled());
  {
    GRIDSEC_TRACE_SPAN("t.post");
  }
  Tracer::stop();
  EXPECT_EQ(Tracer::event_count(), 1u);
  const auto evs = parse_events(export_json());
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "t.post");
}

#endif  // GRIDSEC_NO_OBS

}  // namespace
}  // namespace gridsec::obs
