#include "gridsec/lp/milp.hpp"

#include <cmath>
#include <queue>
#include <utility>
#include <vector>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"
#include "gridsec/util/deadline.hpp"

namespace gridsec::lp {
namespace {

/// A relaxation value this close to an integer counts as integral.
constexpr double kIntegralityTol = 1e-6;
/// Absolute optimality gap: a node whose bound is within it of the
/// incumbent cannot improve on it and is pruned.
constexpr double kAbsoluteGap = 1e-9;

struct BoundChange {
  int var;
  double lower;
  double upper;
};

struct Node {
  double bound;  // internal (minimize-sense) relaxation objective
  std::vector<BoundChange> changes;
  /// Parent node's optimal relaxation basis: a child differs from its
  /// parent by one variable bound, so the parent basis is one crash
  /// repair away from primal feasible and usually re-optimizes in a
  /// handful of pivots. Empty at the root (cold start).
  Basis warm;

  bool operator>(const Node& other) const { return bound > other.bound; }
};

/// Returns the index of the most fractional integer variable, or -1 if the
/// point is integral within tol.
int most_fractional(const Problem& problem, const std::vector<double>& x,
                    double tol) {
  int best = -1;
  double best_dist = tol;
  for (int j = 0; j < problem.num_variables(); ++j) {
    if (problem.variable(j).type == VarType::kContinuous) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double dist = std::fabs(v - std::round(v));
    if (dist > best_dist) {
      best_dist = dist;
      best = j;
    }
  }
  return best;
}

}  // namespace

Solution BranchAndBoundSolver::solve(const Problem& problem) const {
  GRIDSEC_TRACE_SPAN("lp.bnb.solve");
  static obs::Counter& c_solves =
      obs::default_registry().counter("lp.bnb.solves");
  c_solves.add();
  Solution sol = solve_search(problem);
  sol.bnb = stats_;
  if (sol.status == SolveStatus::kNumericalError ||
      sol.status == SolveStatus::kTimeLimit ||
      sol.status == SolveStatus::kIterationLimit) {
    GRIDSEC_LOG(kWarn, "lp.bnb")
        .field("status", to_string(sol.status))
        .field("vars", problem.num_variables())
        .field("rows", problem.num_constraints())
        .field("nodes", sol.bnb.nodes_explored)
        .field("lp_solves", sol.bnb.lp_solves)
        .message("branch-and-bound solve degraded");
  } else {
    GRIDSEC_LOG(kDebug, "lp.bnb")
        .field("status", to_string(sol.status))
        .field("vars", problem.num_variables())
        .field("rows", problem.num_constraints())
        .field("nodes", sol.bnb.nodes_explored)
        .field("incumbent_updates", sol.bnb.incumbent_updates)
        .field("objective", sol.objective);
  }
  if (const SolveHook hook = solve_hook(); hook != nullptr) {
    hook(problem, sol, "lp.bnb");
  }
  return sol;
}

Solution BranchAndBoundSolver::solve_search(const Problem& problem) const {
  stats_ = {};

  // Guardrails: reject NaN/Inf-poisoned data before any LP arithmetic
  // touches it, and arm the wall-clock deadline for the search.
  if (!validate_problem(problem).is_ok()) {
    Solution out;
    out.status = SolveStatus::kNumericalError;
    return out;
  }
  const Deadline deadline = Deadline::in_ms(options_.time_limit_ms);

  const bool maximize = problem.objective() == Objective::kMaximize;
  const auto internal = [maximize](double obj) {
    return maximize ? -obj : obj;
  };

  // Working copy whose integer-variable bounds get overridden per node.
  Problem work = problem;
  // Per-node LP solves warm-start from the parent node's optimal basis
  // (one bound change away); the root and any node without a recorded
  // basis fall back to the ordinary cold start. The options copy is
  // hoisted out of the node loop: per node only the warm basis is
  // assigned (capacity-reusing) and solve_lp avoids the options copy a
  // SimplexSolver construction would add.
  SimplexOptions node_options = options_.lp_options;
  const auto solve_relaxation = [&](const Basis& warm) {
    node_options.warm_start = warm;
    return solve_lp(work, node_options);
  };
  std::vector<std::pair<double, double>> root_bounds;
  root_bounds.reserve(static_cast<std::size_t>(problem.num_variables()));
  for (int j = 0; j < problem.num_variables(); ++j) {
    const auto& v = problem.variable(j);
    root_bounds.emplace_back(v.lower, v.upper);
  }
  const auto apply = [&](const std::vector<BoundChange>& changes) {
    for (int j = 0; j < work.num_variables(); ++j) {
      const auto& rb = root_bounds[static_cast<std::size_t>(j)];
      work.set_bounds(j, rb.first, rb.second);
    }
    for (const auto& ch : changes) work.set_bounds(ch.var, ch.lower, ch.upper);
  };

  Solution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  double incumbent_internal = kInfinity;
  bool any_node_hit_limit = false;
  bool any_node_numerical = false;
  bool deadline_expired = false;

  auto& reg = obs::default_registry();
  static obs::Counter& c_nodes = reg.counter("lp.bnb.nodes");
  static obs::Counter& c_lp_solves = reg.counter("lp.bnb.lp_solves");
  static obs::Counter& c_incumbents = reg.counter("lp.bnb.incumbents");
  static obs::Counter& c_pruned = reg.counter("lp.bnb.pruned");

  Basis root_warm;  // seeded by the dive's root relaxation, if it runs
  if (options_.diving_heuristic && problem.has_integer_variables()) {
    // One rounding dive from the root: cheap, and a feasible incumbent
    // prunes the best-first search dramatically.
    apply({});
    std::vector<BoundChange> dive;
    Basis dive_warm;
    for (;;) {
      if (deadline.expired()) {
        deadline_expired = true;
        break;
      }
      Solution relax = solve_relaxation(dive_warm);
      ++stats_.lp_solves;
      c_lp_solves.add();
      if (relax.status != SolveStatus::kOptimal) break;
      if (dive.empty()) root_warm = relax.basis;  // root relaxation basis
      dive_warm = relax.basis;
      const int frac = most_fractional(problem, relax.x, kIntegralityTol);
      if (frac < 0) {
        for (int j = 0; j < problem.num_variables(); ++j) {
          if (problem.variable(j).type != VarType::kContinuous) {
            relax.x[static_cast<std::size_t>(j)] =
                std::round(relax.x[static_cast<std::size_t>(j)]);
          }
        }
        relax.objective = problem.objective_value(relax.x);
        relax.duals.clear();
        relax.reduced_costs.clear();
        incumbent = relax;
        incumbent_internal = internal(relax.objective);
        ++stats_.incumbent_updates;
        c_incumbents.add();
        break;
      }
      const double v = relax.x[static_cast<std::size_t>(frac)];
      const auto& rv = problem.variable(frac);
      double rounded = std::round(v);
      rounded = std::max(rounded, std::ceil(rv.lower - 1e-9));
      rounded = std::min(rounded, std::floor(rv.upper + 1e-9));
      if (rounded < rv.lower - 1e-9 || rounded > rv.upper + 1e-9) {
        break;  // no integral point within this variable's bounds
      }
      dive.push_back({frac, rounded, rounded});
      apply(dive);
      if (dive.size() > static_cast<std::size_t>(problem.num_variables())) {
        break;  // defensive
      }
    }
  }

  std::priority_queue<Node, std::vector<Node>, std::greater<>> open;
  open.push({-kInfinity, {}, std::move(root_warm)});

  while (!open.empty()) {
    if (stats_.nodes_explored >= options_.max_nodes) {
      any_node_hit_limit = true;
      break;
    }
    if (deadline.expired()) {
      deadline_expired = true;
      break;
    }
    Node node = open.top();
    open.pop();
    if (node.bound >= incumbent_internal - kAbsoluteGap) {
      c_pruned.add();
      continue;  // cannot improve the incumbent
    }
    ++stats_.nodes_explored;
    c_nodes.add();

    apply(node.changes);
    Solution relax = solve_relaxation(node.warm);
    ++stats_.lp_solves;
    c_lp_solves.add();
    if (relax.status == SolveStatus::kInfeasible) continue;
    if (relax.status == SolveStatus::kUnbounded) {
      // Unbounded relaxation at the root means the MILP is unbounded (our
      // binaries cannot bound it); deeper nodes inherit it too.
      Solution out;
      out.status = SolveStatus::kUnbounded;
      return out;
    }
    if (relax.status == SolveStatus::kIterationLimit) {
      any_node_hit_limit = true;
      continue;
    }
    if (relax.status == SolveStatus::kTimeLimit) {
      deadline_expired = true;  // the shared wall clock ran out mid-LP
      break;
    }
    if (relax.status == SolveStatus::kNumericalError) {
      // A wedged relaxation: skip the node (its subtree stays unexplored,
      // so any final answer is demoted from "proven" below).
      any_node_numerical = true;
      continue;
    }
    const double node_internal = internal(relax.objective);
    if (node_internal >= incumbent_internal - kAbsoluteGap) {
      c_pruned.add();
      continue;
    }

    const int branch_var = most_fractional(problem, relax.x, kIntegralityTol);
    if (branch_var < 0) {
      // Integral: new incumbent. Snap integer values exactly.
      for (int j = 0; j < problem.num_variables(); ++j) {
        if (problem.variable(j).type != VarType::kContinuous) {
          relax.x[static_cast<std::size_t>(j)] =
              std::round(relax.x[static_cast<std::size_t>(j)]);
        }
      }
      relax.objective = problem.objective_value(relax.x);
      relax.duals.clear();
      relax.reduced_costs.clear();
      incumbent = relax;
      incumbent_internal = internal(relax.objective);
      ++stats_.incumbent_updates;
      c_incumbents.add();
      continue;
    }

    const double v = relax.x[static_cast<std::size_t>(branch_var)];
    const double floor_v = std::floor(v);
    const auto& rb = root_bounds[static_cast<std::size_t>(branch_var)];

    Node down = node;
    down.bound = node_internal;
    down.changes.push_back({branch_var, rb.first, floor_v});
    down.warm = relax.basis;
    open.push(std::move(down));

    Node up = std::move(node);
    up.bound = node_internal;
    up.changes.push_back({branch_var, floor_v + 1.0, rb.second});
    up.warm = std::move(relax.basis);
    open.push(std::move(up));
  }

  // Demote the verdict when the search was cut short: the incumbent (if
  // any) is feasible but not proven optimal. The wall clock expiring labels
  // the result kTimeLimit; skipped-for-numerics subtrees alone demote an
  // "optimal" to kIterationLimit; a search that produced nothing because
  // every relaxation wedged reports kNumericalError.
  if (deadline_expired) {
    incumbent.status = SolveStatus::kTimeLimit;
  } else if (any_node_hit_limit) {
    incumbent.status = SolveStatus::kIterationLimit;
  } else if (any_node_numerical) {
    incumbent.status = incumbent.status == SolveStatus::kOptimal
                           ? SolveStatus::kIterationLimit
                           : SolveStatus::kNumericalError;
  }
  return incumbent;
}

Solution solve_milp(const Problem& problem) {
  return BranchAndBoundSolver().solve(problem);
}

}  // namespace gridsec::lp
