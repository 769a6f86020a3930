#include "gridsec/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/util/error.hpp"

namespace gridsec {

namespace {

/// Pool counters live in the default registry and are written under the
/// pool mutex the code already holds, except tasks_completed, which a task
/// counts itself before parallel_for's completion signal so that the count
/// is whole when parallel_for returns. busy_ns/idle_ns are cumulative
/// time: busy accrues once per completed task, idle once per
/// condition-variable wait.
struct PoolMetrics {
  obs::Counter& submitted =
      obs::default_registry().counter("util.threadpool.tasks_submitted");
  obs::Counter& completed =
      obs::default_registry().counter("util.threadpool.tasks_completed");
  obs::Counter& busy_ns =
      obs::default_registry().counter("util.threadpool.busy_ns");
  obs::Counter& idle_ns =
      obs::default_registry().counter("util.threadpool.idle_ns");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics* m = new PoolMetrics();
  return *m;
}

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  stats_.resize(threads);
  waiting_since_.resize(threads, 0);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit_raw(void (*fn)(void*), void* ctx, std::size_t count) {
  {
    std::lock_guard lock(mutex_);
    GRIDSEC_ASSERT_MSG(!stop_, "submit after shutdown");
    for (std::size_t i = 0; i < count; ++i) {
      queue_.push_back(Task{fn, ctx});
    }
    pool_metrics().submitted.add(static_cast<std::int64_t>(count));
  }
  cv_.notify_all();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::lock_guard lock(mutex_);
  std::vector<WorkerStats> out = stats_;
  // Workers parked on the queue right now have an open wait that has not
  // been flushed into stats_ yet; add it so callers see live idle time.
  const std::uint64_t now = mono_ns();
  for (std::size_t w = 0; w < out.size(); ++w) {
    if (waiting_since_[w] != 0 && now > waiting_since_[w]) {
      out[w].idle_ns += static_cast<std::int64_t>(now - waiting_since_[w]);
    }
  }
  return out;
}

void ThreadPool::worker_loop(std::size_t worker) {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      const std::uint64_t wait_start = mono_ns();
      waiting_since_[worker] = wait_start;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      waiting_since_[worker] = 0;
      const auto idle = static_cast<std::int64_t>(mono_ns() - wait_start);
      stats_[worker].idle_ns += idle;
      pool_metrics().idle_ns.add(idle);
      if (stop_ && queue_.empty()) return;
      task = queue_.front();
      queue_.pop_front();
      ++active_;
    }
    const std::uint64_t busy_start = mono_ns();
    // Tasks own their error signalling and their allocation flush
    // (parallel_for's control block).
    task.fn(task.ctx);
    const auto busy = static_cast<std::int64_t>(mono_ns() - busy_start);
    {
      std::lock_guard lock(mutex_);
      stats_[worker].busy_ns += busy;
      stats_[worker].tasks += 1;
      pool_metrics().busy_ns.add(busy);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

namespace {

/// parallel_for's whole control block lives on the caller's stack; workers
/// only touch it through the ctx pointer, and the caller blocks on done_cv
/// until every enqueued task has decremented `pending`, so the block always
/// outlives its last reader.
struct ParallelForCtl {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t pending = 0;  // tasks not yet finished, under mutex
  std::exception_ptr first_error;
};

void parallel_for_task(void* p) {
  auto* ctl = static_cast<ParallelForCtl*>(p);
  for (;;) {
    // Once any worker threw, stop claiming items: the caller is about to
    // rethrow and there is no point burning through the rest.
    if (ctl->failed.load(std::memory_order_relaxed)) break;
    const std::size_t i = ctl->cursor.fetch_add(1);
    if (i >= ctl->n) break;
    try {
      (*ctl->fn)(i);
    } catch (...) {
      ctl->failed.store(true, std::memory_order_relaxed);
      std::lock_guard lock(ctl->mutex);
      if (!ctl->first_error) ctl->first_error = std::current_exception();
    }
  }
  // Count the task and fold this worker's allocation counts into the
  // process totals before signalling (the hooks themselves only touch
  // thread_locals), so a caller that reads them once parallel_for returns
  // sees this share's.
  pool_metrics().completed.add();
  obs::prof_detail::flush_thread_allocs();
  // Signal under the mutex so the caller cannot observe pending == 0 and
  // destroy the control block while this thread still holds a reference.
  std::lock_guard lock(ctl->mutex);
  if (--ctl->pending == 0) ctl->done_cv.notify_all();
}

}  // namespace

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->size() == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Item claiming uses an atomic cursor so load stays balanced when item
  // costs vary (MILPs do). The control block — cursor, failure latch,
  // completion latch — is a single stack object shared by every worker via
  // the raw-task ctx pointer: no shared_ptr, no futures, no per-dispatch
  // heap traffic.
  ParallelForCtl ctl;
  ctl.fn = &fn;
  ctl.n = n;
  const std::size_t workers = std::min(pool->size(), n);
  ctl.pending = workers;
  pool->submit_raw(&parallel_for_task, &ctl, workers);
  std::unique_lock lock(ctl.mutex);
  ctl.done_cv.wait(lock, [&ctl] { return ctl.pending == 0; });
  // Every worker has finished fn before pending hits zero, so propagating
  // the first exception (and letting fn/ctl die) is safe here.
  if (ctl.first_error) std::rethrow_exception(ctl.first_error);
}

}  // namespace gridsec
