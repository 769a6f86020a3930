// Thread-safe metrics registry: counters, gauges, fixed-bucket histograms
// and RunningStats-backed timers, with JSON/CSV export.
//
// Design goals, in order:
//   1. Near-zero cost on hot paths. Counters and gauges are single relaxed
//      atomics; solver loops accumulate into plain locals and flush once
//      per solve. Instrument sites cache the `Counter&` returned by the
//      registry in a function-local static, so the name lookup (mutex +
//      map) happens once per process, not per call.
//   2. Stable addresses. Instruments are arena-allocated inside the
//      registry and never move or die before the registry does; the global
//      default_registry() never dies, so cached references stay valid for
//      the life of the process. reset() zeroes values without invalidating
//      references.
//   3. Exact under concurrency. Counter::add is atomic; hammering one
//      counter from every ThreadPool worker loses no increments (tested).
//
// Naming scheme: dot-separated `<layer>.<component>.<what>`, lowercase,
// e.g. "lp.simplex.pivots", "core.bnb.nodes", "util.threadpool.queue_depth".
// See docs/observability.md for the full catalogue.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gridsec/util/stats.hpp"

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
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, utilization, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations x with
/// x <= bounds[i] (first matching bucket); one implicit overflow bucket
/// collects x > bounds.back(). Bounds are fixed at construction.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] std::vector<std::int64_t> counts() const;
  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const;
  /// Bucket-interpolated quantile estimate, q in [0, 1]. Assumes a uniform
  /// distribution within each bucket with the first bucket anchored at
  /// min(0, bounds[0]); observations in the overflow bucket clamp to
  /// bounds.back(). Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  void reset();

 private:
  std::vector<double> bounds_;                       // ascending
  std::vector<std::atomic<std::int64_t>> buckets_;   // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Duration accumulator backed by RunningStats (mean/stddev/min/max over
/// observed seconds). Mutex-protected: use per-solve or coarser, never
/// per-iteration. Keeps a bounded reservoir of samples (deterministic LCG
/// replacement once full) so tail quantiles stay available at export time.
class Timer {
 public:
  void observe_seconds(double s);
  [[nodiscard]] RunningStats snapshot() const;
  /// Reservoir-estimated quantile of observed seconds, q in [0, 1].
  /// Exact until the reservoir (kReservoirCapacity samples) overflows;
  /// an unbiased estimate after. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  void reset();

  static constexpr std::size_t kReservoirCapacity = 2048;

 private:
  mutable std::mutex mutex_;
  RunningStats stats_;
  std::vector<double> samples_;  // reservoir, <= kReservoirCapacity
  std::uint64_t lcg_ = 0x9e3779b97f4a7c15ULL;
};

/// RAII: times a scope into a Timer. A null timer records nothing.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::uint64_t start_ns_;
};

/// Named instrument store. Lookup is mutex + map (slow path); call sites
/// cache the returned reference. Instruments live as long as the registry.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Find-or-create by name. The reference stays valid for the registry's
  /// lifetime. histogram() with a name that already exists returns the
  /// existing instrument (the bounds argument is ignored then).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  Timer& timer(const std::string& name);

  /// Zeroes every instrument's value. References remain valid.
  void reset();

  /// Point-in-time snapshot of every counter's value, keyed by name. Used
  /// by the bench harness to compute per-case metric deltas.
  [[nodiscard]] std::map<std::string, std::int64_t> counter_values() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
  /// "timers":{...}}. Names sorted; stable across runs.
  void write_json(std::ostream& os) const;
  /// Flat CSV: kind,name,field,value — one line per scalar.
  void write_csv(std::ostream& os) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

/// The process-global registry every built-in instrumentation site writes
/// to. Never destroyed (leaked on purpose so worker threads may touch it
/// during static teardown).
MetricRegistry& default_registry();

}  // namespace gridsec::obs
