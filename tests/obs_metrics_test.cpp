// Metrics registry: find-or-create identity, concurrency safety, and
// counter snapshots.
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace gridsec::obs {
namespace {

TEST(MetricRegistry, FindOrCreateReturnsSameInstrument) {
  MetricRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(MetricRegistry, CounterConcurrentHammerExactTotal) {
  MetricRegistry reg;
  Counter& c = reg.counter("hammer.count");
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 10000;
  ThreadPool pool(8);
  parallel_for(&pool, kTasks, [&c](std::size_t) {
    for (int i = 0; i < kAddsPerTask; ++i) c.add();
  });
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kTasks) * kAddsPerTask);
}

TEST(MetricRegistry, ConcurrentFindOrCreateSingleInstrument) {
  MetricRegistry reg;
  constexpr int kTasks = 32;
  ThreadPool pool(8);
  std::atomic<Counter*> first{nullptr};
  std::atomic<int> mismatches{0};
  parallel_for(&pool, kTasks, [&](std::size_t) {
    Counter& c = reg.counter("race.count");
    c.add();
    Counter* expected = nullptr;
    if (!first.compare_exchange_strong(expected, &c) && expected != &c) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reg.counter("race.count").value(), kTasks);
}

TEST(MetricRegistry, CounterValuesSnapshotsAllCounters) {
  MetricRegistry reg;
  reg.counter("a.count").add(2);
  reg.counter("b.count").add(5);
  const auto values = reg.counter_values();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values.at("a.count"), 2);
  EXPECT_EQ(values.at("b.count"), 5);
}

TEST(MetricRegistry, DefaultRegistryIsProcessGlobal) {
  MetricRegistry& a = default_registry();
  MetricRegistry& b = default_registry();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace gridsec::obs
