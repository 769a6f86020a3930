#include "gridsec/obs/metrics.hpp"

namespace gridsec::obs {

Counter& MetricRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::map<std::string, std::int64_t> MetricRegistry::counter_values() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

MetricRegistry& default_registry() {
  // Leaked intentionally: instrumented code (thread-pool workers, solver
  // calls from static destructors in tests) may outlive ordinary statics.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace gridsec::obs
