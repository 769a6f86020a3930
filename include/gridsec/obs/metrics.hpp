// Thread-safe metrics registry of monotonic counters.
//
// Design goals, in order:
//   1. Near-zero cost on hot paths. A counter is a single relaxed atomic;
//      solver loops accumulate into plain locals and flush once per solve.
//      Instrument sites cache the `Counter&` returned by the registry in a
//      function-local static, so the name lookup (mutex + map) happens
//      once per process, not per call.
//   2. Stable addresses. Counters are allocated inside the registry and
//      never move or die before the registry does; the global
//      default_registry() never dies, so cached references stay valid for
//      the life of the process.
//   3. Exact under concurrency. Counter::add is atomic; hammering one
//      counter from every ThreadPool worker loses no increments (tested).
//
// Run reports (obs/report.hpp) record how much every counter advanced per
// case. Naming scheme: dot-separated `<layer>.<component>.<what>`,
// lowercase, e.g. "lp.simplex.pivots", "core.bnb.nodes",
// "util.threadpool.tasks_completed". See docs/observability.md for the
// full catalogue.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace gridsec::obs {

/// Monotonic event count. add() is wait-free (relaxed atomic).
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Named counter store. Lookup is mutex + map (slow path); call sites
/// cache the returned reference. Counters live as long as the registry.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Find-or-create by name. The reference stays valid for the registry's
  /// lifetime.
  Counter& counter(const std::string& name);

  /// Point-in-time snapshot of every counter's value, keyed by name. Used
  /// by the bench harness to compute per-case metric deltas.
  [[nodiscard]] std::map<std::string, std::int64_t> counter_values() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

/// The process-global registry every built-in instrumentation site writes
/// to. Never destroyed (leaked on purpose so worker threads may touch it
/// during static teardown).
MetricRegistry& default_registry();

}  // namespace gridsec::obs
