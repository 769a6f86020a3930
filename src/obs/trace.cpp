#include "gridsec/obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "gridsec/obs/prof.hpp"

namespace gridsec::obs {

#ifndef GRIDSEC_NO_OBS

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct TraceEvent {
  const char* name;
  std::uint64_t open_ns;
  std::uint64_t close_ns;
};

/// One buffer per recording thread. The owning thread appends; the
/// exporter reads from another thread — both under the buffer mutex
/// (uncontended except during export).
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TracerState {
  std::atomic<bool> enabled{false};
  std::uint64_t epoch_ns = now_ns();  // ts origin, set once at load
  std::mutex registry_mutex;
  // shared_ptr keeps buffers alive past thread exit so worker spans
  // survive until export.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

TracerState& state() {
  static TracerState* s = new TracerState();  // leaked: see header
  return *s;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TracerState& s = state();
    std::lock_guard lock(s.registry_mutex);
    b->tid = s.next_tid++;
    s.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void Tracer::start() {
  state().enabled.store(true, std::memory_order_release);
}

void Tracer::stop() {
  state().enabled.store(false, std::memory_order_release);
}

bool Tracer::enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void Tracer::reset() {
  TracerState& s = state();
  std::lock_guard lock(s.registry_mutex);
  for (auto& b : s.buffers) {
    std::lock_guard buffer_lock(b->mutex);
    b->events.clear();
  }
}

std::size_t Tracer::event_count() {
  TracerState& s = state();
  std::lock_guard lock(s.registry_mutex);
  std::size_t n = 0;
  for (auto& b : s.buffers) {
    std::lock_guard buffer_lock(b->mutex);
    n += b->events.size();
  }
  return n;
}

void Tracer::write_chrome_json(std::ostream& os) {
  TracerState& s = state();
  std::lock_guard lock(s.registry_mutex);
  os << "[";
  bool first = true;
  for (auto& b : s.buffers) {
    std::lock_guard buffer_lock(b->mutex);
    for (const TraceEvent& e : b->events) {
      if (!first) os << ",\n";
      first = false;
      const std::uint64_t ts_us = (e.open_ns - s.epoch_ns) / 1000;
      const std::uint64_t dur_us = (e.close_ns - e.open_ns) / 1000;
      os << "{\"name\":\"" << e.name << "\",\"cat\":\"gridsec\","
         << "\"ph\":\"X\",\"ts\":" << ts_us << ",\"dur\":" << dur_us
         << ",\"pid\":1,\"tid\":" << b->tid << '}';
    }
  }
  os << "]\n";
}

TraceSpan::TraceSpan(const char* name)
    : name_(Tracer::enabled() ? name : nullptr),
      open_ns_(name_ != nullptr ? now_ns() : 0),
      prof_(Profiler::enabled()) {
  if (prof_) prof_detail::frame_push(name);
}

TraceSpan::~TraceSpan() {
  if (prof_) prof_detail::frame_pop();
  if (name_ == nullptr) return;
  const std::uint64_t close_ns = now_ns();
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard lock(buffer.mutex);
  buffer.events.push_back({name_, open_ns_, close_ns});
}

#else  // GRIDSEC_NO_OBS

void Tracer::write_chrome_json(std::ostream& os) { os << "[]\n"; }

#endif  // GRIDSEC_NO_OBS

}  // namespace gridsec::obs
