// Tests for the thread pool, parallel_for, and worker busy/idle accounting.
#include "gridsec/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gridsec/obs/metrics.hpp"

namespace gridsec {
namespace {

TEST(ThreadPool, WorkerStatsAccountBusyTimePerTask) {
  // parallel_for enqueues one pump task per worker (a one-worker pool runs
  // serially on the caller), so three sweeps on two workers are 6 tasks.
  ThreadPool pool(2);
  for (int i = 0; i < 3; ++i) {
    parallel_for(&pool, 2, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
  }
  pool.wait_idle();
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  std::int64_t tasks = 0;
  std::int64_t busy_ns = 0;
  for (const auto& s : stats) {
    tasks += s.tasks;
    busy_ns += s.busy_ns;
  }
  EXPECT_EQ(tasks, 6);
  // 6 x 5ms of sleeping inside task bodies; allow generous slack for
  // coarse schedulers but busy time must clearly register.
  EXPECT_GE(busy_ns, 20'000'000);
}

TEST(ThreadPool, WorkerStatsIncludeLiveIdleForParkedWorkers) {
  ThreadPool pool(2);
  // No work submitted: both workers are parked from construction on. The
  // open waits must show up as idle time without any task transition.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.tasks, 0);
    EXPECT_EQ(s.busy_ns, 0);
    EXPECT_GE(s.idle_ns, 4'000'000);  // parked for ~10ms, allow slack
  }
}

TEST(ThreadPool, BusyAndIdleFlowIntoRegistryCounters) {
  auto& registry = obs::default_registry();
  const std::int64_t busy_before =
      registry.counter("util.threadpool.busy_ns").value();
  const std::int64_t idle_before =
      registry.counter("util.threadpool.idle_ns").value();
  {
    ThreadPool pool(2);
    parallel_for(&pool, 4, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    pool.wait_idle();
  }  // destructor joins the workers, flushing their final idle waits
  EXPECT_GE(registry.counter("util.threadpool.busy_ns").value(),
            busy_before + 4'000'000);  // 4 x 2ms with slack
  EXPECT_GT(registry.counter("util.threadpool.idle_ns").value(),
            idle_before);
}

TEST(ThreadPool, WorkerStatsUnderConcurrentLoadCoverEveryWorker) {
  // TSan-exercised: stats are read while workers are mid-task.
  ThreadPool pool(4);
  std::atomic<bool> stop_poll{false};
  std::thread poller([&pool, &stop_poll] {
    while (!stop_poll.load(std::memory_order_relaxed)) {
      const auto stats = pool.worker_stats();
      EXPECT_EQ(stats.size(), 4u);
      for (const auto& s : stats) {
        EXPECT_GE(s.busy_ns, 0);
        EXPECT_GE(s.idle_ns, 0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  parallel_for(&pool, 64, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  stop_poll.store(true, std::memory_order_relaxed);
  poller.join();
  pool.wait_idle();
  const auto stats = pool.worker_stats();
  std::int64_t total_tasks = 0;
  std::int64_t total_busy = 0;
  for (const auto& s : stats) {
    total_tasks += s.tasks;
    total_busy += s.busy_ns;
  }
  // parallel_for submits one pump task per worker (4 for 64 items).
  EXPECT_GE(total_tasks, 4);
  EXPECT_GT(total_busy, 0);
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  // parallel_for returns once every item ran; wait_idle also waits for the
  // workers to finish their bookkeeping, so the task counts are final.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int sweep = 0; sweep < 8; ++sweep) {
    parallel_for(&pool, 16, [&done](std::size_t) { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 128);
  std::int64_t tasks = 0;
  for (const auto& s : pool.worker_stats()) tasks += s.tasks;
  EXPECT_EQ(tasks, 16);  // one pump task per worker per sweep
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(&pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, NullPoolRunsSerially) {
  std::vector<int> order;
  parallel_for(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(&pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  // Deterministic reduction: each index contributes a fixed value, so sums
  // must agree across pool sizes.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    const std::size_t n = 500;
    std::vector<double> out(n);
    parallel_for(&pool, n, [&](std::size_t i) {
      out[i] = static_cast<double>(i * i % 97);
    });
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  const double s1 = run(1);
  const double s4 = run(4);
  EXPECT_DOUBLE_EQ(s1, s4);
}

TEST(ParallelFor, PropagatesWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(&pool, 8,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("bad index");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ThrowDrainsAllWorkersBeforeReturning) {
  // Regression: parallel_for must not rethrow while workers still hold
  // references to caller state. By the time the exception surfaces here,
  // no worker may touch `hits` or `in_flight` again; with an early-rethrow
  // implementation the captures go out of scope while workers still run,
  // which ASan flags as a stack-use-after-scope.
  ThreadPool pool(4);
  const std::size_t n = 64;
  {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> in_flight{0};
    EXPECT_THROW(
        parallel_for(&pool, n,
                     [&](std::size_t i) {
                       in_flight.fetch_add(1);
                       if (i == 0) {
                         in_flight.fetch_sub(1);
                         throw std::runtime_error("early failure");
                       }
                       hits[i].fetch_add(1);
                       in_flight.fetch_sub(1);
                     }),
        std::runtime_error);
    // All workers have finished: nothing is still executing the lambda.
    EXPECT_EQ(in_flight.load(), 0);
    // Every index ran at most once (some are skipped after the failure).
    for (std::size_t i = 1; i < n; ++i) EXPECT_LE(hits[i].load(), 1);
  }
  // The pool survives and stays usable after a throwing parallel_for.
  std::atomic<int> ran{0};
  parallel_for(&pool, 16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelFor, SurfacesFirstExceptionMessage) {
  ThreadPool pool(3);
  try {
    parallel_for(&pool, 32, [](std::size_t) {
      throw std::runtime_error("boom");
    });
    FAIL() << "parallel_for should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ParallelFor, ExceptionStopsClaimingNewIndices) {
  // After a failure is observed, workers stop claiming fresh work, so a
  // long range finishes promptly instead of running every index.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      parallel_for(&pool, 100000,
                   [&](std::size_t) {
                     executed.fetch_add(1);
                     throw std::runtime_error("stop");
                   }),
      std::runtime_error);
  // Cancellation is advisory, but most of the range must be skipped.
  EXPECT_LT(executed.load(), 100000);
}

TEST(ParallelFor, SerialPathPropagatesException) {
  std::vector<int> ran;
  EXPECT_THROW(parallel_for(nullptr, 5,
                            [&](std::size_t i) {
                              if (i == 2) throw std::runtime_error("serial");
                              ran.push_back(static_cast<int>(i));
                            }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace gridsec
