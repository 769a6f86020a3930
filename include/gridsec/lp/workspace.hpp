// Reusable solver workspace: all per-solve simplex state in one place.
//
// A SolverWorkspace owns the solver's entire mutable state — the
// column-sparse tableau, bounds, costs, the current point, basis indices,
// pricing vectors, warm-start repair scratch — carved from a single
// util::Arena buffer, plus the BasisFactorization whose factor and eta
// storage lives in its own capacity-reused vectors. The lifecycle is
// solve → reset → solve: a solve re-binds the workspace to the problem's
// shape (one arena rewind + pointer carving, no heap traffic once the
// arena has grown to the high-water mark), so a caller that solves the
// same-shaped LP in a loop — impact matrices, Monte Carlo trials, B&B
// nodes, game rounds — performs zero steady-state allocations inside the
// solver.
//
// Re-solves of the same rows skip even that. The workspace keeps A built
// from the last lp::Problem::rows_id it saw, and re-binds and rebuilds
// only for another id; bound and cost changes keep it. It also keeps the
// last warm start's crash basis, that basis's LU and the dual-feasible
// start, keyed on the rows id, the warm Basis and the finiteness of its
// at-upper columns' upper bounds. A warm solve with the same key restores
// them instead of crashing and refactorizing, with bit-identical answers
// (docs/solvers.md, "Resident A and the warm checkpoint").
//
// Ownership rules:
//   - One workspace, one thread. Nothing here is synchronized.
//   - Callers normally don't touch this type at all: every solve without
//     an explicit SimplexOptions::workspace uses thread_solver_workspace(),
//     which lives in the thread-pool worker's scratch slot (or a plain
//     thread_local off-pool). Pass an explicit workspace only when the
//     solver state must outlive the solve (analyze_sensitivity does this
//     for its final-tableau views).
//   - A workspace is reused, not shared: each solve leases it for its
//     duration, and no solve starts inside another (the recovery ladder
//     and the solve hook run after the lease is released). A lease on a
//     workspace already in use asserts.
#pragma once

#include <cstddef>
#include <memory>

namespace gridsec::util {
class Arena;
}

namespace gridsec::lp {

namespace detail {
struct WorkspaceImpl;
}

class SolverWorkspace {
 public:
  SolverWorkspace();
  ~SolverWorkspace();

  SolverWorkspace(const SolverWorkspace&) = delete;
  SolverWorkspace& operator=(const SolverWorkspace&) = delete;

  /// Releases all carved state, the resident A and the warm checkpoint,
  /// and frees the arena. The next solve re-grows it; reset() is for
  /// reclaiming memory after an unusually large problem, not part of the
  /// per-solve cycle (solves re-bind automatically).
  void reset();

  struct Stats {
    std::size_t arena_capacity = 0;   // bytes reserved by the arena
    std::size_t arena_high_water = 0; // max bytes a single bind carved
    std::size_t binds = 0;            // binds: solves on a new rows id
  };
  [[nodiscard]] Stats stats() const;

  /// The arena backing this workspace (for diagnostics and tests).
  [[nodiscard]] util::Arena& arena();

  /// Internal: the solver-facing state block.
  [[nodiscard]] detail::WorkspaceImpl& impl() { return *impl_; }

 private:
  std::unique_ptr<detail::WorkspaceImpl> impl_;
};

/// The calling thread's default workspace. On a thread-pool worker this is
/// the worker's WorkerScratch slot — born with the worker, reused by every
/// task it runs, destroyed when the pool joins. Off-pool it is a plain
/// thread_local. Either way: one instance per thread, valid for the
/// thread's lifetime.
SolverWorkspace& thread_solver_workspace();

}  // namespace gridsec::lp
