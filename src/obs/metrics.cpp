#include "gridsec/obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

#include "gridsec/util/error.hpp"

namespace gridsec::obs {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void atomic_add_double(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  GRIDSEC_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                     "histogram bounds must be ascending");
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, x);
}

std::vector<std::int64_t> Histogram::counts() const {
  std::vector<std::int64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  const auto counts = this->counts();
  std::int64_t total = 0;
  for (const std::int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  if (bounds_.empty()) return 0.0;  // only the overflow bucket exists
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cumulative + in_bucket < target || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds_.size()) return bounds_.back();  // overflow: clamp
    const double lower = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
    const double upper = bounds_[i];
    const double fraction = (target - cumulative) / in_bucket;
    return lower + fraction * (upper - lower);
  }
  return bounds_.back();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

void Timer::observe_seconds(double s) {
  std::lock_guard lock(mutex_);
  stats_.add(s);
  if (samples_.size() < kReservoirCapacity) {
    samples_.push_back(s);
    return;
  }
  // Vitter's algorithm R with a deterministic LCG: sample i replaces a
  // random reservoir slot with probability capacity / count.
  lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::uint64_t slot = lcg_ % stats_.count();
  if (slot < kReservoirCapacity) samples_[slot] = s;
}

RunningStats Timer::snapshot() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

double Timer::quantile(double q) const {
  std::lock_guard lock(mutex_);
  if (samples_.empty()) return 0.0;
  return percentile(samples_, std::min(1.0, std::max(0.0, q)) * 100.0);
}

void Timer::reset() {
  std::lock_guard lock(mutex_);
  stats_ = RunningStats();
  samples_.clear();
}

ScopedTimer::ScopedTimer(Timer* timer)
    : timer_(timer), start_ns_(timer != nullptr ? now_ns() : 0) {}

ScopedTimer::~ScopedTimer() {
  if (timer_ == nullptr) return;
  timer_->observe_seconds(static_cast<double>(now_ns() - start_ns_) * 1e-9);
}

Counter& MetricRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

Timer& MetricRegistry::timer(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = timers_[name];
  if (!slot) slot = std::make_unique<Timer>();
  return *slot;
}

std::map<std::string, std::int64_t> MetricRegistry::counter_values() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

void MetricRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, t] : timers_) t->reset();
}

namespace {

/// JSON string escaping for metric names (conservative: names are plain
/// identifiers, but keep the export well-formed for any input).
void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

void write_json_double(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << (v > 0 ? "1e308" : "-1e308");  // JSON has no infinities
  }
}

}  // namespace

void MetricRegistry::write_json(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ':' << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ':';
    write_json_double(os, g->value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ":{\"bounds\":[";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i) os << ',';
      write_json_double(os, bounds[i]);
    }
    os << "],\"counts\":[";
    const auto counts = h->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) os << ',';
      os << counts[i];
    }
    os << "],\"count\":" << h->count() << ",\"sum\":";
    write_json_double(os, h->sum());
    os << ",\"p50\":";
    write_json_double(os, h->quantile(0.5));
    os << ",\"p90\":";
    write_json_double(os, h->quantile(0.9));
    os << ",\"p99\":";
    write_json_double(os, h->quantile(0.99));
    os << '}';
  }
  os << "},\"timers\":{";
  first = true;
  for (const auto& [name, t] : timers_) {
    if (!first) os << ',';
    first = false;
    const RunningStats s = t->snapshot();
    write_json_string(os, name);
    os << ":{\"count\":" << s.count() << ",\"mean\":";
    write_json_double(os, s.mean());
    os << ",\"stddev\":";
    write_json_double(os, s.stddev());
    os << ",\"min\":";
    write_json_double(os, s.count() ? s.min() : 0.0);
    os << ",\"max\":";
    write_json_double(os, s.count() ? s.max() : 0.0);
    os << ",\"p50\":";
    write_json_double(os, t->quantile(0.5));
    os << ",\"p90\":";
    write_json_double(os, t->quantile(0.9));
    os << ",\"p99\":";
    write_json_double(os, t->quantile(0.99));
    os << ",\"total\":";
    write_json_double(os, s.sum());
    os << '}';
  }
  os << "}}";
}

void MetricRegistry::write_csv(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  os << "kind,name,field,value\n";
  for (const auto& [name, c] : counters_) {
    os << "counter," << name << ",value," << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge," << name << ",value," << g->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",count," << h->count() << '\n';
    os << "histogram," << name << ",sum," << h->sum() << '\n';
    os << "histogram," << name << ",p50," << h->quantile(0.5) << '\n';
    os << "histogram," << name << ",p90," << h->quantile(0.9) << '\n';
    os << "histogram," << name << ",p99," << h->quantile(0.99) << '\n';
    const auto& bounds = h->bounds();
    const auto counts = h->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      os << "histogram," << name << ",le_";
      if (i < bounds.size()) {
        os << bounds[i];
      } else {
        os << "inf";
      }
      os << ',' << counts[i] << '\n';
    }
  }
  for (const auto& [name, t] : timers_) {
    const RunningStats s = t->snapshot();
    os << "timer," << name << ",count," << s.count() << '\n';
    os << "timer," << name << ",mean," << s.mean() << '\n';
    os << "timer," << name << ",p50," << t->quantile(0.5) << '\n';
    os << "timer," << name << ",p90," << t->quantile(0.9) << '\n';
    os << "timer," << name << ",p99," << t->quantile(0.99) << '\n';
    os << "timer," << name << ",total," << s.sum() << '\n';
  }
}

MetricRegistry& default_registry() {
  // Leaked intentionally: instrumented code (thread-pool workers, solver
  // calls from static destructors in tests) may outlive ordinary statics.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace gridsec::obs
