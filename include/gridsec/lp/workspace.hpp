// Reusable solver workspace: all per-solve simplex state in one place.
//
// A SolverWorkspace owns the solver's entire mutable state — the
// column-sparse tableau, bounds, costs, the current point, basis indices,
// pricing vectors, warm-start repair scratch and the BasisFactorization's
// factor and eta storage — in capacity-reused vectors. A solve re-binds
// the workspace to the problem's shape by resizing them (no heap traffic
// once each has grown to the largest shape seen), so a caller that solves
// the same-shaped LP in a loop — impact matrices, Monte Carlo trials, B&B
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
//     the calling thread's own. Pass an explicit workspace to keep a
//     problem's resident A and warm checkpoint apart from the thread's.
//   - A workspace is reused, not shared: each solve leases it for its
//     duration, and no solve starts inside another (the recovery ladder
//     and the solve hook run after the lease is released). A lease on a
//     workspace already in use asserts.
#pragma once

#include <cstddef>
#include <memory>

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

  struct Stats {
    std::size_t binds = 0;  // binds: solves on a new rows id
  };
  [[nodiscard]] Stats stats() const;

  /// Internal: the solver-facing state block.
  [[nodiscard]] detail::WorkspaceImpl& impl() { return *impl_; }

 private:
  std::unique_ptr<detail::WorkspaceImpl> impl_;
};

/// The calling thread's default workspace: a thread_local, made on the
/// thread's first solve and destroyed when the thread exits — on a
/// thread-pool worker, when the pool joins. One instance per thread, valid
/// for the thread's lifetime.
SolverWorkspace& thread_solver_workspace();

}  // namespace gridsec::lp
