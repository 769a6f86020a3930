// gridsec::obs::prof — phase-attributed profiling: frame capture via
// TraceSpan, exclusive allocation attribution, registry publication, the
// simplex's per-phase spans, and TSan-exercised concurrent recording.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/lp/problem.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/obs/trace.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace gridsec::obs {
namespace {

#ifndef GRIDSEC_NO_OBS

/// Allocates exactly one heap block of `bytes` requested bytes and keeps
/// it alive until the returned pointer dies.
std::unique_ptr<char[]> grab(std::size_t bytes) {
  std::unique_ptr<char[]> p(new char[bytes]);
  p[0] = 'x';  // touch so the allocation cannot be elided
  return p;
}

class ProfilerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::stop();
    Profiler::reset();
  }
  void TearDown() override {
    Profiler::stop();
    Profiler::reset();
  }
};

using ProfilerTest = ProfilerFixture;

TEST_F(ProfilerTest, DisabledByDefaultAndSpansRecordNothing) {
  ASSERT_FALSE(Profiler::enabled());
  { GRIDSEC_TRACE_SPAN("prof.test.unrecorded"); }
  const Profile p = Profiler::snapshot();
  EXPECT_EQ(p.root.find("prof.test.unrecorded"), nullptr);
}

// The capture decision is made when a span opens: a span that straddles
// start() pushes and pops no frame, while one opened after start()
// records at top level rather than under the unrecorded span.
TEST_F(ProfilerTest, SpanOpenedWhileDisabledIsNotRecorded) {
  {
    TraceSpan straddle("prof.test.straddle");  // opened while off
    Profiler::start();
    { GRIDSEC_TRACE_SPAN("prof.test.after_start"); }
  }  // closes while on — still must not record
  Profiler::stop();
  const Profile p = Profiler::snapshot();
  EXPECT_EQ(p.root.find("prof.test.straddle"), nullptr);
  const ProfileNode* inner = p.root.find("prof.test.after_start");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 1);
}

TEST_F(ProfilerTest, BuildsCallTreeWithCountsAndTimes) {
  Profiler::start();
  for (int i = 0; i < 3; ++i) {
    GRIDSEC_TRACE_SPAN("prof.test.outer");
    {
      GRIDSEC_TRACE_SPAN("prof.test.inner");
      // Spin ~1ms of real CPU work so wall and cpu are both visibly > 0.
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
      volatile double sink = 0.0;
      while (std::chrono::steady_clock::now() < until) sink = sink + 1.0;
    }
  }
  Profiler::stop();
  const Profile p = Profiler::snapshot();
  ASSERT_EQ(p.threads, 1);
  const ProfileNode* outer = p.root.find("prof.test.outer");
  ASSERT_NE(outer, nullptr);
  const ProfileNode* inner = outer->find("prof.test.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3);
  EXPECT_EQ(inner->count, 3);
  // Inclusive nesting: the parent contains the child.
  EXPECT_GE(outer->wall_ns, inner->wall_ns);
  EXPECT_GT(inner->wall_ns, 2'000'000);  // 3 reps x ~1ms spin
  EXPECT_GT(inner->cpu_ns, 0);
  // Exclusive split: excl = incl - children, clamped non-negative.
  EXPECT_EQ(outer->excl_wall_ns, outer->wall_ns - inner->wall_ns);
  EXPECT_EQ(inner->excl_wall_ns, inner->wall_ns);  // leaf: no children
  EXPECT_GE(outer->excl_cpu_ns, 0);
}

TEST_F(ProfilerTest, AttributesAllocationsExclusivelyToTheActivePhase) {
  Profiler::start();
  {
    GRIDSEC_TRACE_SPAN("prof.test.alloc_outer");
    auto a = grab(1000);
    {
      GRIDSEC_TRACE_SPAN("prof.test.alloc_inner");
      auto b = grab(5000);
    }
    auto c = grab(300);
  }
  Profiler::stop();
  const Profile p = Profiler::snapshot();
  const ProfileNode* outer = p.root.find("prof.test.alloc_outer");
  ASSERT_NE(outer, nullptr);
  const ProfileNode* inner = outer->find("prof.test.alloc_inner");
  ASSERT_NE(inner, nullptr);
  // The inner 5000-byte block is charged to the inner phase only. The
  // profiler's own bookkeeping (tree nodes) adds a small constant, hence
  // bounds instead of equality.
  EXPECT_GE(inner->alloc_bytes, 5000);
  EXPECT_LT(inner->alloc_bytes, 5000 + 2048);
  EXPECT_GE(inner->alloc_count, 1);
  EXPECT_LT(inner->alloc_count, 16);
  // The outer phase carries its own 1000 + 300 bytes but NOT the inner
  // 5000 — alloc attribution is exclusive, unlike wall/cpu time.
  EXPECT_GE(outer->alloc_bytes, 1300);
  EXPECT_LT(outer->alloc_bytes, 5000);
}

// A warm simplex solve splits into one child span per phase, and the
// refactorizations nest inside the phases that run them.
TEST_F(ProfilerTest, WarmSimplexSolveSplitsIntoPhases) {
  lp::Problem p(lp::Objective::kMinimize);
  const int x0 = p.add_variable("x0", 0.0, 4.0, -1.0);
  const int x1 = p.add_variable("x1", 0.0, 3.0, -2.0);
  p.add_constraint("cap", lp::LinearExpr().add(x0, 1.0).add(x1, 1.0),
                   lp::Sense::kLessEqual, 5.0);
  const lp::Solution cold = lp::solve_lp(p);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  // x0 is basic at 2; putting it out takes one dual pivot.
  p.set_bounds(x0, 0.0, 0.0);
  lp::SimplexOptions warm;
  warm.warm_start = cold.basis;

  Profiler::start();
  const lp::Solution sol = lp::solve_lp(p, warm);
  Profiler::stop();
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  ASSERT_TRUE(sol.warm_started);
  EXPECT_EQ(sol.iterations, 1);

  const Profile prof = Profiler::snapshot();
  const ProfileNode* solve = prof.root.find("lp.simplex.solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->count, 1);
  for (const char* phase :
       {"lp.simplex.setup", "lp.simplex.warm_start", "lp.simplex.dual",
        "lp.simplex.primal", "lp.simplex.check", "lp.simplex.extract"}) {
    const ProfileNode* child = solve->find(phase);
    ASSERT_NE(child, nullptr) << phase;
    EXPECT_EQ(child->count, 1) << phase;
  }
  EXPECT_EQ(solve->find("lp.simplex.refactorize"), nullptr);
  // The crash basis is factorized in the warm start; the dual pivot's eta
  // is folded into a fresh factorization by the check.
  EXPECT_NE(solve->find("lp.simplex.warm_start")->find("lp.simplex.refactorize"),
            nullptr);
  EXPECT_NE(solve->find("lp.simplex.check")->find("lp.simplex.refactorize"),
            nullptr);
}

TEST_F(ProfilerTest, ResetDiscardsRecordedFrames) {
  Profiler::start();
  { GRIDSEC_TRACE_SPAN("prof.test.discarded"); }
  Profiler::stop();
  ASSERT_NE(Profiler::snapshot().root.find("prof.test.discarded"), nullptr);
  Profiler::reset();
  EXPECT_EQ(Profiler::snapshot().root.find("prof.test.discarded"), nullptr);
}

TEST_F(ProfilerTest, SnapshotIsCallableWhileRecording) {
  Profiler::start();
  GRIDSEC_TRACE_SPAN("prof.test.still_open");
  const Profile p = Profiler::snapshot();
  // The open frame has not completed, so it contributes no count yet; the
  // call must simply not deadlock or crash.
  const ProfileNode* open = p.root.find("prof.test.still_open");
  if (open != nullptr) {
    EXPECT_EQ(open->count, 0);
  }
}

TEST_F(ProfilerTest, AllocTotalsTrackCountBytesLiveAndPeak) {
  // Totals count requested blocks and bytes while the profiler records,
  // as they do while it is off (SyncAllocCounters... below).
  Profiler::start();
  const AllocTotals before = alloc_totals();
  auto block = grab(1 << 16);
  const AllocTotals during = alloc_totals();
  EXPECT_GE(during.count, before.count + 1);
  EXPECT_GE(during.bytes, before.bytes + (1 << 16));
}

TEST_F(ProfilerTest, SyncAllocCountersPublishesMonotonicRegistryCounters) {
  sync_alloc_counters();
  const std::int64_t c1 =
      default_registry().counter("obs.alloc.count").value();
  const std::int64_t b1 =
      default_registry().counter("obs.alloc.bytes").value();
  EXPECT_GT(c1, 0);
  EXPECT_GT(b1, 0);
  auto block = grab(10000);
  sync_alloc_counters();
  const std::int64_t c2 =
      default_registry().counter("obs.alloc.count").value();
  const std::int64_t b2 =
      default_registry().counter("obs.alloc.bytes").value();
  EXPECT_GT(c2, c1);
  EXPECT_GE(b2, b1 + 10000);
  // Delta publication: the counter never overtakes the process totals.
  EXPECT_LE(c2, alloc_totals().count);
}

TEST_F(ProfilerTest, WeightValuesMatchNodeFields) {
  ProfileNode n;
  n.excl_wall_ns = 3'000'000;
  n.excl_cpu_ns = 2'000'000;
  n.alloc_count = 7;
  n.alloc_bytes = 4096;
  EXPECT_EQ(profile_weight_value(n, ProfileWeight::kWallMicros), 3000);
  EXPECT_EQ(profile_weight_value(n, ProfileWeight::kCpuMicros), 2000);
  EXPECT_EQ(profile_weight_value(n, ProfileWeight::kAllocCount), 7);
  EXPECT_EQ(profile_weight_value(n, ProfileWeight::kAllocBytes), 4096);
}

TEST_F(ProfilerTest, FlattenProfileListsEveryPathDepthFirst) {
  Profiler::start();
  {
    GRIDSEC_TRACE_SPAN("prof.test.flat_a");
    { GRIDSEC_TRACE_SPAN("prof.test.flat_b"); }
  }
  Profiler::stop();
  const Profile p = Profiler::snapshot();
  const std::vector<ProfileRow> rows = flatten_profile(p);
  bool found_a = false;
  bool found_ab = false;
  for (const ProfileRow& r : rows) {
    if (r.path == "prof.test.flat_a") found_a = true;
    if (r.path == "prof.test.flat_a;prof.test.flat_b") found_ab = true;
  }
  EXPECT_TRUE(found_a);
  EXPECT_TRUE(found_ab);
}

// TSan coverage: workers record nested spans and allocate while the main
// thread snapshots mid-flight. The profiler must be data-race free.
TEST(Profiler, ConcurrentSpansAndAllocsAreTSanClean) {
  Profiler::stop();
  Profiler::reset();
  Profiler::start();
  ThreadPool pool(4);
  std::atomic<bool> stop_snapshots{false};
  std::thread snapshotter([&stop_snapshots] {
    while (!stop_snapshots.load(std::memory_order_relaxed)) {
      EXPECT_GE(Profiler::snapshot().threads, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  parallel_for(&pool, 64, [](std::size_t i) {
    GRIDSEC_TRACE_SPAN("prof.test.worker_outer");
    std::vector<std::unique_ptr<char[]>> blocks;
    for (std::size_t j = 0; j < 8; ++j) {
      GRIDSEC_TRACE_SPAN("prof.test.worker_inner");
      blocks.push_back(grab(64 * (1 + (i % 7))));
    }
  });
  stop_snapshots.store(true, std::memory_order_relaxed);
  snapshotter.join();
  Profiler::stop();
  const Profile p = Profiler::snapshot();
  const ProfileNode* outer = p.root.find("prof.test.worker_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 64);
  const ProfileNode* inner = outer->find("prof.test.worker_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 64 * 8);
  EXPECT_GE(inner->alloc_count, 64 * 8);  // one grab() per inner span
  Profiler::reset();
}

#endif  // GRIDSEC_NO_OBS

}  // namespace
}  // namespace gridsec::obs
