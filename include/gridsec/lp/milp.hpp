// Branch-and-bound MILP solver on top of SimplexSolver.
//
// Handles the paper's two mixed-integer programs — strategic-adversary
// target/actor selection (Eqs 8–11, after McCormick linearization of the
// T(i)·A(j) products) and the defender knapsack (Eqs 12–14 / 16–18). Both
// use binary decisions only, but general integer variables are supported.
//
// Node selection is best-first on the relaxation bound; branching picks the
// most fractional integer variable. Exact for the problem sizes here
// (≤ ~200 binaries with tight budgets).
#pragma once

#include "gridsec/lp/problem.hpp"
#include "gridsec/lp/simplex.hpp"

namespace gridsec::lp {

struct BranchAndBoundOptions {
  SimplexOptions lp_options;
  long max_nodes = 200000;
  /// Wall-clock deadline in milliseconds, checked once per node (and in the
  /// diving heuristic). 0 = no limit. Expiry returns the incumbent (if any)
  /// with SolveStatus::kTimeLimit — feasible but not proven optimal.
  double time_limit_ms = 0.0;
  /// Before the search, dive once from the root relaxation — repeatedly
  /// round the most fractional integer and re-solve — to seed an incumbent
  /// early. Never affects optimality, only pruning speed.
  bool diving_heuristic = true;
};

// BranchAndBoundStats lives in problem.hpp so Solution can embed it; the
// same counters are also available here via BranchAndBoundSolver::stats().

class BranchAndBoundSolver {
 public:
  explicit BranchAndBoundSolver(BranchAndBoundOptions options = {})
      : options_(options) {}

  /// Solves `problem` to proven optimality: a node is pruned once its
  /// bound is within 1e-9 of the incumbent, and a relaxation value within
  /// 1e-6 of an integer counts as integral.
  /// Solution::duals is empty (MILP duals are not well defined).
  /// status == kIterationLimit / kTimeLimit means the node or wall-clock
  /// budget was exhausted; the returned incumbent (if any) is feasible but
  /// possibly suboptimal. kNumericalError means the data is NaN/Inf-poisoned
  /// or every relaxation wedged numerically; no incumbent is returned then.
  /// Solution::bnb carries the search counters (same values as stats()).
  [[nodiscard]] Solution solve(const Problem& problem) const;

  [[nodiscard]] const BranchAndBoundStats& stats() const { return stats_; }

 private:
  [[nodiscard]] Solution solve_search(const Problem& problem) const;

  BranchAndBoundOptions options_;
  mutable BranchAndBoundStats stats_;
};

/// One-shot MILP solve with default options.
Solution solve_milp(const Problem& problem);

}  // namespace gridsec::lp
