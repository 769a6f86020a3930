// Fixed-size thread pool and parallel_for used by the Monte-Carlo harness.
//
// Determinism contract: callers must make each work item self-seeding
// (e.g. Rng::derive_stream(trial_index)) so results do not depend on which
// thread runs which item.
//
// Hot-path allocation contract: parallel_for keeps its whole control block
// (claim cursor, failure latch, completion latch) on the caller's stack and
// enqueues raw function-pointer tasks, so dispatching a sweep performs no
// heap allocation beyond the queue's amortized deque storage. Per-thread
// solver state (lp::thread_solver_workspace, cps's target-sweep memo) is a
// thread_local: a worker's lives from its first use to the pool's join,
// reused across every task the worker runs rather than reallocated per
// trial.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gridsec {

class ThreadPool {
 public:
  /// Cumulative per-worker accounting since pool construction. busy_ns is
  /// time spent inside task bodies; idle_ns is time spent parked on the
  /// queue's condition variable (including the current wait, for workers
  /// that are parked when worker_stats() is called). Dispatch overhead —
  /// the sliver between wake-up and task start — lands in neither bucket.
  struct WorkerStats {
    std::int64_t busy_ns = 0;
    std::int64_t idle_ns = 0;
    std::int64_t tasks = 0;
  };

  /// threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Blocks until every task submitted so far has finished, including the
  /// workers' bookkeeping after it (worker_stats, util.threadpool.busy_ns).
  void wait_idle();

  /// Snapshot of per-worker busy/idle totals, one entry per worker. The
  /// same totals flow into the util.threadpool.busy_ns / idle_ns registry
  /// counters (cumulative across every pool in the process).
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;

 private:
  /// One queue entry: a raw function-pointer task (allocation-free; must
  /// not throw).
  struct Task {
    void (*fn)(void*) = nullptr;
    void* ctx = nullptr;
  };

  /// Enqueues `count` copies of a raw task. The callee owns all
  /// completion/error signalling through `ctx`.
  void submit_raw(void (*fn)(void*), void* ctx, std::size_t count);

  void worker_loop(std::size_t worker);

  friend void parallel_for(ThreadPool* pool, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::vector<WorkerStats> stats_;          // indexed by worker, under mutex_
  std::vector<std::uint64_t> waiting_since_;  // ns timestamp, 0 = not parked
};

/// Runs fn(i) for i in [0, n), distributing chunks over `pool`. Blocks until
/// all iterations complete and every worker that ran a share has folded its
/// allocation counts into obs::alloc_totals(). fn must be safe to call
/// concurrently for distinct i. With a null pool, runs serially. Performs
/// no heap allocation on the dispatch path (see the header comment).
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace gridsec
