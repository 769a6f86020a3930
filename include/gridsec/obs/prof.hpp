// gridsec::obs::prof — in-process self-profiling: phase-attributed wall and
// thread-CPU time and heap-allocation accounting.
//
// The profiler rides the TraceSpan hierarchy: every GRIDSEC_TRACE_SPAN site
// is a profiling phase marker. While the profiler is enabled, each span
// open/close maintains a per-thread frame stack and accumulates into a
// call tree keyed by span-name path, which answers "which phase of
// compute_impact_matrix burns the cycles". A run report (obs/report.hpp)
// carries the snapshot as its optional "profile" member.
//
// What gets recorded per call-tree node:
//   * count         — times the phase was entered (completed frames);
//   * wall_ns       — inclusive wall time (steady clock);
//   * cpu_ns        — inclusive thread-CPU time (CLOCK_THREAD_CPUTIME_ID);
//   * excl_*        — the above minus all children (computed at snapshot);
//   * alloc_count / alloc_bytes — heap traffic attributed EXCLUSIVELY to
//     the phase that was topmost when the allocation happened.
//
// Allocation accounting replaces the global operator new/delete (prof.cpp)
// and is always on in a default build: per-thread counters feed phase
// attribution, process-wide relaxed atomics feed the obs.alloc.count /
// obs.alloc.bytes registry counters published by sync_alloc_counters().
// Both track *requested* sizes and are deterministic for a given binary;
// while the profiler records, its own call-tree nodes count too. The
// capture machinery in this header compiles to no-ops under
// GRIDSEC_NO_OBS (the tree types and ranking helpers stay, so tools read
// profiles produced elsewhere).
//
// Cost model:
//   * GRIDSEC_NO_OBS: zero — the operator new replacement is not
//     even linked;
//   * profiler disabled (default at runtime): one extra relaxed atomic
//     load per TraceSpan, plus the allocation hooks (a handful of relaxed
//     increments per new/delete — measured < 3% wall on micro_solvers);
//   * profiler enabled: two clock reads and one uncontended per-thread
//     mutex lock per span open and close.
//
// Concurrency: recording threads only touch their own tree under their own
// mutex; Profiler::snapshot() merges every thread's tree from any thread.
// TSan-clean by construction (tested).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gridsec::obs {

/// One node of the (merged, thread-agnostic) call-tree profile.
struct ProfileNode {
  std::string name;                // span name, e.g. "lp.simplex.solve"
  std::int64_t count = 0;          // completed frames
  std::int64_t wall_ns = 0;        // inclusive wall time
  std::int64_t cpu_ns = 0;         // inclusive thread-CPU time
  std::int64_t excl_wall_ns = 0;   // wall minus children
  std::int64_t excl_cpu_ns = 0;    // cpu minus children
  std::int64_t alloc_count = 0;    // exclusive: allocs while topmost
  std::int64_t alloc_bytes = 0;    // exclusive: requested bytes
  std::vector<ProfileNode> children;  // sorted by name

  /// Direct child by name, nullptr when absent.
  [[nodiscard]] const ProfileNode* find(const std::string& child) const;
};

/// Process-wide allocation totals since start (requested sizes).
struct AllocTotals {
  std::int64_t count = 0;
  std::int64_t bytes = 0;
};

/// The merged call tree. Process-wide allocation and thread-pool totals
/// are not repeated here: every run-report case carries them as
/// obs.alloc.* and util.threadpool.* counter deltas.
struct Profile {
  ProfileNode root;            // name "(root)"; children = top-level phases
  std::int64_t threads = 0;    // threads that recorded at least one frame
};

/// Weight used for the inspect ranking.
enum class ProfileWeight { kWallMicros, kCpuMicros, kAllocCount, kAllocBytes };

/// Flattened view for rankings: "a;b;c" path plus a pointer into the
/// profile tree. Stable order: depth-first, children by name.
struct ProfileRow {
  std::string path;
  const ProfileNode* node = nullptr;
};
[[nodiscard]] std::vector<ProfileRow> flatten_profile(const Profile& profile);

/// Exclusive weight of `node` under `weight` (micros for the time weights).
[[nodiscard]] std::int64_t profile_weight_value(const ProfileNode& node,
                                                ProfileWeight weight);

#ifndef GRIDSEC_NO_OBS

/// Global capture control. All static; the singleton state lives in
/// prof.cpp and is intentionally leaked (worker threads may record frames
/// during static teardown).
class Profiler {
 public:
  /// Enables frame capture. Spans already open stay unprofiled (the
  /// decision is made at span open).
  static void start();
  /// Disables capture; the accumulated tree is kept for snapshot().
  static void stop();
  [[nodiscard]] static bool enabled();
  /// Discards every tree and open frame stack. Do not call concurrently
  /// with recording if you care about attribution of in-flight spans
  /// (it is memory-safe either way).
  static void reset();
  /// Merges every thread's tree and computes exclusive times. Callable
  /// while recording.
  [[nodiscard]] static Profile snapshot();
};

/// Process-wide allocation totals. They always accumulate (cheap
/// per-thread increments, folded into the process totals when a
/// parallel_for worker finishes its share and whenever totals are read).
/// Other threads' traffic is included as of their last flush point.
[[nodiscard]] AllocTotals alloc_totals();

/// Publishes allocation totals into default_registry() as monotonic
/// counters obs.alloc.count / obs.alloc.bytes. Call before reading counter
/// snapshots that should include heap traffic — the bench harness does
/// this around every case.
void sync_alloc_counters();

namespace prof_detail {
/// TraceSpan integration points — not for direct use.
void frame_push(const char* name);
void frame_pop();
/// Folds the calling thread's pending allocation counts into the process
/// totals. Each parallel_for worker calls this before it signals its share
/// done, so worker traffic is visible to alloc_totals() once parallel_for
/// returns, without per-allocation atomics.
void flush_thread_allocs() noexcept;
}  // namespace prof_detail

#else  // GRIDSEC_NO_OBS: capture machinery compiles away.

class Profiler {
 public:
  static void start() {}
  static void stop() {}
  [[nodiscard]] static bool enabled() { return false; }
  static void reset() {}
  [[nodiscard]] static Profile snapshot() { return Profile{}; }
};

[[nodiscard]] inline AllocTotals alloc_totals() { return AllocTotals{}; }
inline void sync_alloc_counters() {}

namespace prof_detail {
inline void frame_push(const char*) {}
inline void frame_pop() {}
inline void flush_thread_allocs() noexcept {}
}  // namespace prof_detail

#endif  // GRIDSEC_NO_OBS

}  // namespace gridsec::obs
