#include "gridsec/obs/prof.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "gridsec/obs/metrics.hpp"

#ifndef GRIDSEC_NO_OBS
#include <time.h>  // clock_gettime(CLOCK_THREAD_CPUTIME_ID)
#endif

namespace gridsec::obs {

// ---------------------------------------------------------------------------
// Tree helpers — always compiled, so tools rank profiles even in
// GRIDSEC_NO_OBS builds.
// ---------------------------------------------------------------------------

const ProfileNode* ProfileNode::find(const std::string& child) const {
  for (const ProfileNode& c : children) {
    if (c.name == child) return &c;
  }
  return nullptr;
}

namespace {

void flatten_node(const ProfileNode& n, std::string path,
                  std::vector<ProfileRow>* out) {
  path += n.name;
  out->push_back({path, &n});
  path += ';';
  for (const ProfileNode& c : n.children) flatten_node(c, path, out);
}

}  // namespace

std::int64_t profile_weight_value(const ProfileNode& node,
                                  ProfileWeight weight) {
  switch (weight) {
    case ProfileWeight::kWallMicros: return node.excl_wall_ns / 1000;
    case ProfileWeight::kCpuMicros: return node.excl_cpu_ns / 1000;
    case ProfileWeight::kAllocCount: return node.alloc_count;
    case ProfileWeight::kAllocBytes: return node.alloc_bytes;
  }
  return 0;
}

std::vector<ProfileRow> flatten_profile(const Profile& profile) {
  std::vector<ProfileRow> out;
  for (const ProfileNode& c : profile.root.children) {
    flatten_node(c, std::string(), &out);
  }
  return out;
}

#ifndef GRIDSEC_NO_OBS

// ---------------------------------------------------------------------------
// Allocation accounting.
//
// Two tiers: plain thread_local counters (owner-thread only; feed phase
// attribution through the frame checkpoints below) and process-wide relaxed
// atomics (feed alloc_totals()/sync_alloc_counters()). The thread_locals
// are PODs with static initialization on purpose — the hooks run inside
// operator new, where a dynamically-initialized TLS object could recurse
// into the allocator it is instrumenting.
//
// The hot path is kept to plain TLS arithmetic, the same whether or not
// the profiler records: per-thread counts fold into the global atomics
// only at flush points (the end of a parallel_for worker's share,
// alloc_totals() reads, frame push/pop).
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_alloc_bytes{0};

thread_local std::int64_t t_alloc_count = 0;
thread_local std::int64_t t_alloc_bytes = 0;
// Watermarks: how much of t_alloc_* has been folded into g_alloc_*.
thread_local std::int64_t t_flushed_count = 0;
thread_local std::int64_t t_flushed_bytes = 0;

inline void track_alloc(std::size_t requested) noexcept {
  t_alloc_count += 1;
  t_alloc_bytes += static_cast<std::int64_t>(requested);
}

void* alloc_throwing(std::size_t n) {
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) {
      track_alloc(n);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* alloc_nothrow(std::size_t n) noexcept {
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p != nullptr) track_alloc(n);
  return p;
}

// ---------------------------------------------------------------------------
// Frame recording.
// ---------------------------------------------------------------------------

std::uint64_t wall_ns_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns_now() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// One call-tree node. Span names are string literals; identical names from
/// different TUs may be distinct pointers, so matching tries the pointer
/// first and falls back to strcmp. Child counts are small — linear scan.
struct Node {
  explicit Node(const char* n) : name(n) {}
  const char* name;
  std::int64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t alloc_count = 0;
  std::int64_t alloc_bytes = 0;
  std::vector<std::unique_ptr<Node>> children;

  Node* find_or_add(const char* child) {
    for (auto& c : children) {
      if (c->name == child || std::strcmp(c->name, child) == 0) {
        return c.get();
      }
    }
    children.push_back(std::make_unique<Node>(child));
    return children.back().get();
  }
};

struct Frame {
  Node* node;
  std::uint64_t open_wall_ns;
  std::uint64_t open_cpu_ns;
};

/// Per-thread profile state. The owning thread mutates under `mutex`; the
/// snapshot/reset paths take the same mutex from other threads.
struct ThreadProf {
  ThreadProf() { stack.reserve(64); }
  std::mutex mutex;
  Node root{"(root)"};
  std::vector<Frame> stack;
  // Checkpoint of the owner's t_alloc_* counters: the delta since the last
  // push/pop boundary is charged to whichever node was topmost then.
  std::int64_t ckpt_count = 0;
  std::int64_t ckpt_bytes = 0;
};

struct ProfState {
  std::atomic<bool> enabled{false};
  std::mutex registry_mutex;
  // shared_ptr keeps per-thread trees alive past thread exit so worker
  // frames survive until snapshot.
  std::vector<std::shared_ptr<ThreadProf>> threads;
};

ProfState& state() {
  static ProfState* s = new ProfState();  // leaked: see header
  return *s;
}

ThreadProf& local_prof() {
  thread_local std::shared_ptr<ThreadProf> tp = [] {
    auto p = std::make_shared<ThreadProf>();
    ProfState& s = state();
    std::lock_guard lock(s.registry_mutex);
    s.threads.push_back(p);
    return p;
  }();
  return *tp;
}

/// Charges the owner's allocation delta since the last checkpoint to the
/// currently-topmost node. Caller holds tp.mutex and is the owner thread
/// (t_alloc_* are the caller's own TLS).
void charge_allocs_locked(ThreadProf& tp) {
  const std::int64_t dc = t_alloc_count - tp.ckpt_count;
  const std::int64_t db = t_alloc_bytes - tp.ckpt_bytes;
  tp.ckpt_count = t_alloc_count;
  tp.ckpt_bytes = t_alloc_bytes;
  if (dc == 0 && db == 0) return;
  Node* active = tp.stack.empty() ? &tp.root : tp.stack.back().node;
  active->alloc_count += dc;
  active->alloc_bytes += db;
}

void merge_node(const Node& from, ProfileNode* into) {
  into->count += from.count;
  into->wall_ns += from.wall_ns;
  into->cpu_ns += from.cpu_ns;
  into->alloc_count += from.alloc_count;
  into->alloc_bytes += from.alloc_bytes;
  for (const auto& child : from.children) {
    ProfileNode* slot = nullptr;
    for (ProfileNode& existing : into->children) {
      if (existing.name == child->name) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      into->children.emplace_back();
      slot = &into->children.back();
      slot->name = child->name;
    }
    merge_node(*child, slot);
  }
}

void finalize_node(ProfileNode* n) {
  std::sort(n->children.begin(), n->children.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              return a.name < b.name;
            });
  std::int64_t child_wall = 0;
  std::int64_t child_cpu = 0;
  for (ProfileNode& c : n->children) {
    finalize_node(&c);
    child_wall += c.wall_ns;
    child_cpu += c.cpu_ns;
  }
  // Clock jitter can push a child a hair past its parent; clamp at zero so
  // exclusive weights stay non-negative.
  n->excl_wall_ns = std::max<std::int64_t>(0, n->wall_ns - child_wall);
  n->excl_cpu_ns = std::max<std::int64_t>(0, n->cpu_ns - child_cpu);
}

}  // namespace

namespace prof_detail {

void flush_thread_allocs() noexcept {
  const std::int64_t dc = t_alloc_count - t_flushed_count;
  const std::int64_t db = t_alloc_bytes - t_flushed_bytes;
  if (dc == 0 && db == 0) return;
  t_flushed_count = t_alloc_count;
  t_flushed_bytes = t_alloc_bytes;
  g_alloc_count.fetch_add(dc, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(db, std::memory_order_relaxed);
}

void frame_push(const char* name) {
  ThreadProf& tp = local_prof();
  const std::uint64_t wall = wall_ns_now();
  const std::uint64_t cpu = cpu_ns_now();
  std::lock_guard lock(tp.mutex);
  charge_allocs_locked(tp);
  Node* parent = tp.stack.empty() ? &tp.root : tp.stack.back().node;
  tp.stack.push_back({parent->find_or_add(name), wall, cpu});
}

void frame_pop() {
  ThreadProf& tp = local_prof();
  const std::uint64_t wall = wall_ns_now();
  const std::uint64_t cpu = cpu_ns_now();
  std::lock_guard lock(tp.mutex);
  if (tp.stack.empty()) return;  // reset() raced an open span: drop it
  charge_allocs_locked(tp);
  const Frame f = tp.stack.back();
  tp.stack.pop_back();
  f.node->count += 1;
  f.node->wall_ns += static_cast<std::int64_t>(wall - f.open_wall_ns);
  f.node->cpu_ns += static_cast<std::int64_t>(cpu - f.open_cpu_ns);
}

}  // namespace prof_detail

void Profiler::start() {
  state().enabled.store(true, std::memory_order_release);
}

void Profiler::stop() {
  state().enabled.store(false, std::memory_order_release);
}

bool Profiler::enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void Profiler::reset() {
  ProfState& s = state();
  std::lock_guard lock(s.registry_mutex);
  for (auto& tp : s.threads) {
    std::lock_guard tp_lock(tp->mutex);
    tp->root.children.clear();
    tp->root = Node{"(root)"};
    tp->stack.clear();
  }
}

Profile Profiler::snapshot() {
  Profile p;
  p.root.name = "(root)";
  {
    ProfState& s = state();
    std::lock_guard lock(s.registry_mutex);
    for (auto& tp : s.threads) {
      std::lock_guard tp_lock(tp->mutex);
      if (tp->root.children.empty() && tp->root.alloc_count == 0) continue;
      ++p.threads;
      merge_node(tp->root, &p.root);
    }
  }
  finalize_node(&p.root);
  p.root.excl_wall_ns = 0;  // the synthetic root carries no time of its own
  p.root.excl_cpu_ns = 0;
  return p;
}

AllocTotals alloc_totals() {
  prof_detail::flush_thread_allocs();  // include the caller's own tail
  AllocTotals t;
  t.count = g_alloc_count.load(std::memory_order_relaxed);
  t.bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  return t;
}

void sync_alloc_counters() {
  // Published as deltas so the registry counters stay monotonic.
  static std::mutex mutex;
  static std::int64_t published_count = 0;
  static std::int64_t published_bytes = 0;
  static Counter& c_count = default_registry().counter("obs.alloc.count");
  static Counter& c_bytes = default_registry().counter("obs.alloc.bytes");
  const AllocTotals t = alloc_totals();
  std::lock_guard lock(mutex);
  c_count.add(t.count - published_count);
  c_bytes.add(t.bytes - published_bytes);
  published_count = t.count;
  published_bytes = t.bytes;
}

#endif  // GRIDSEC_NO_OBS

}  // namespace gridsec::obs

#ifndef GRIDSEC_NO_OBS

// ---------------------------------------------------------------------------
// Global operator new/delete replacement. Linked into every binary that
// pulls this object (trace.cpp references prof_detail::frame_push, so any
// target using TraceSpan gets the hooks). The replacements must not
// allocate, which is why the per-thread counters above are plain PODs.
// new takes its blocks from malloc, so delete hands them back to free.
// ---------------------------------------------------------------------------

void* operator new(std::size_t n) {
  return gridsec::obs::alloc_throwing(n);
}
void* operator new[](std::size_t n) {
  return gridsec::obs::alloc_throwing(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return gridsec::obs::alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return gridsec::obs::alloc_nothrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // GRIDSEC_NO_OBS
