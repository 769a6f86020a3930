// Solver event streams: optional observer callbacks the LP/MILP solvers
// invoke with per-iteration / per-node progress, so callers can watch
// pivot behaviour and bound/incumbent/gap trajectories live instead of
// reading aggregate stats after the fact.
//
// Observers are plain std::functions on SimplexOptions /
// BranchAndBoundOptions. A default-constructed (empty) observer costs one
// branch per iteration; event structs are only materialized when an
// observer is attached. Observers must not retain references into the
// solver and must be fast — they run inside the solve loop.
#pragma once

#include <functional>

namespace gridsec::obs {

/// One completed simplex pivot (including bound flips): a primal pivot, or
/// a dual pivot of a warm start's feasibility phase.
struct SimplexIterationEvent {
  long iteration = 0;   // 0-based, cumulative across phase 1 and phase 2
  /// 1 = feasibility phase (primal phase 1 cold, dual pivots warm),
  /// 2 = optimality phase.
  int phase = 2;
  int entering = -1;    // internal column index entering the basis
  int leaving = -1;     // internal column leaving; -1 for a bound flip
  double step = 0.0;    // primal step length taken by the entering column
  bool bound_flip = false;   // pivot was a bound traversal, no basis change
  /// The objective did not move: a primal step (or a dual pivot's dual
  /// step) of length ~0.
  bool degenerate = false;
  bool bland = false;        // Bland's anti-cycling rule was active
};

using SimplexObserver = std::function<void(const SimplexIterationEvent&)>;

/// One branch-and-bound search step.
struct BnBNodeEvent {
  enum class Kind {
    kNodeExplored,    // node popped and its LP relaxation solved
    kPrunedByBound,   // node discarded: bound cannot beat the incumbent
    kInfeasible,      // node LP relaxation infeasible
    kIncumbent,       // new best integral solution found
    kBranched,        // node split on `branch_var`
  };
  Kind kind = Kind::kNodeExplored;
  long node = 0;            // nodes explored so far (dive reports 0)
  int depth = 0;            // number of branching bound-changes at the node
  double bound = 0.0;       // node relaxation objective, problem sense
  double incumbent = 0.0;   // best integral objective so far, problem sense
  bool has_incumbent = false;
  double gap = 0.0;         // |incumbent - bound| when has_incumbent
  int branch_var = -1;      // for kBranched / kIncumbent context
};

using BnBObserver = std::function<void(const BnBNodeEvent&)>;

}  // namespace gridsec::obs
