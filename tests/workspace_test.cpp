// Tests for the allocation-free hot path: lp::SolverWorkspace (reuse
// across problem shapes bit-identical to a fresh workspace across the
// simplex, MILP branch-and-bound, and the numerical-recovery ladder;
// steady-state binds allocate nothing; a nested lease asserts), the
// resident A and the warm checkpoint (what invalidates them, and
// bit-identical answers against fresh workspaces), and per-worker
// workspace isolation on the thread pool.
//
// The WorkspaceConcurrency suite runs under TSan in CI: thread-pool
// workers each own a thread_local workspace, and concurrent solves must
// never share one.
#include "gridsec/lp/workspace.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/flow/social_welfare.hpp"
#include "gridsec/lp/milp.hpp"
#include "gridsec/lp/problem.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/robust/recovery.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/rng.hpp"
#include "gridsec/util/thread_pool.hpp"
#include "lp/workspace_internal.hpp"

#ifndef GRIDSEC_ILLCOND_DIR
#define GRIDSEC_ILLCOND_DIR "tests/data/illcond"
#endif

namespace gridsec {
namespace {

// ---------------------------------------------------------------------------
// Workspace reuse: a workspace that solved a problem of another shape must
// answer bit for bit as a fresh workspace does.

// Dense-enough LP to force a non-trivial pivot sequence.
lp::Problem pivoty_lp() {
  lp::Problem p(lp::Objective::kMinimize);
  for (int j = 0; j < 8; ++j) {
    p.add_variable(std::string("x").append(std::to_string(j)), 0.0, 10.0 + j,
                   (j % 3 == 0 ? -1.0 : 1.0) * (1.0 + 0.25 * j));
  }
  for (int i = 0; i < 6; ++i) {
    lp::LinearExpr row;
    for (int j = 0; j < 8; ++j) {
      row.add(j, ((i + j) % 4) - 1.5);
    }
    p.add_constraint(std::string("r").append(std::to_string(i)), std::move(row),
                     i % 2 == 0 ? lp::Sense::kLessEqual
                                : lp::Sense::kGreaterEqual,
                     i % 2 == 0 ? 20.0 + i : -5.0 - i);
  }
  return p;
}

// A larger LP with an equality row: solved first, it leaves a workspace's
// vectors sized, and filled, for another shape.
lp::Problem other_shape_lp() {
  lp::Problem p(lp::Objective::kMaximize);
  for (int j = 0; j < 12; ++j) {
    p.add_variable("z", 0.0, 5.0, 1.0 + 0.5 * (j % 4));
  }
  for (int i = 0; i < 8; ++i) {
    lp::LinearExpr row;
    for (int j = 0; j < 12; ++j) row.add(j, ((i * j) % 5) + 0.5);
    p.add_constraint("c", std::move(row), lp::Sense::kLessEqual,
                     40.0 + 3.0 * i);
  }
  lp::LinearExpr balance;
  balance.add(0, 1.0);
  balance.add(1, 1.0);
  balance.add(2, -1.0);
  p.add_constraint("balance", std::move(balance), lp::Sense::kEqual, 1.0);
  return p;
}

/// Solves other_shape_lp() on `ws`.
void solve_other_shape(lp::SolverWorkspace& ws) {
  lp::SimplexOptions opt;
  opt.workspace = &ws;
  ASSERT_EQ(lp::solve_lp(other_shape_lp(), opt).status,
            lp::SolveStatus::kOptimal);
}

void expect_bit_identical(const lp::Solution& a, const lp::Solution& b) {
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);  // exact, not NEAR: bit-identical
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);
  ASSERT_EQ(a.duals.size(), b.duals.size());
  for (std::size_t i = 0; i < a.duals.size(); ++i) {
    EXPECT_EQ(a.duals[i], b.duals[i]);
  }
  ASSERT_EQ(a.reduced_costs.size(), b.reduced_costs.size());
  for (std::size_t i = 0; i < a.reduced_costs.size(); ++i) {
    EXPECT_EQ(a.reduced_costs[i], b.reduced_costs[i]);
  }
  EXPECT_EQ(lp::to_string(a.basis), lp::to_string(b.basis));
}

TEST(SolverWorkspaceTest, SolveResetSolveBitIdenticalToFreshWorkspace) {
  const lp::Problem p = pivoty_lp();

  lp::SolverWorkspace fresh;
  lp::SimplexOptions opt;
  opt.workspace = &fresh;
  const lp::Solution reference = lp::solve_lp(p, opt);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);

  lp::SolverWorkspace reused;
  opt.workspace = &reused;
  const lp::Solution first = lp::solve_lp(p, opt);
  solve_other_shape(reused);
  const lp::Solution after_other = lp::solve_lp(p, opt);  // rebinds
  const lp::Solution resident = lp::solve_lp(p, opt);     // no rebind

  expect_bit_identical(reference, first);
  expect_bit_identical(reference, after_other);
  expect_bit_identical(reference, resident);
}

// The counters that trace a solve's pivot path. Equal per-solve deltas on
// a replay mean the same pivots, bound flips, eta updates and
// refactorizations ran.
std::vector<std::int64_t> pivot_path_counters() {
  static const char* const kNames[] = {
      "lp.simplex.pivots",           "lp.simplex.degenerate_pivots",
      "lp.simplex.bound_flips",      "lp.simplex.eta_updates",
      "lp.simplex.refactorizations", "lp.simplex.bland_pivots",
      "lp.basis.residual_refactorizations"};
  std::vector<std::int64_t> values;
  for (const char* name : kNames) {
    values.push_back(obs::default_registry().counter(name).value());
  }
  return values;
}

TEST(SolverWorkspaceTest, PivotPathIdenticalAcrossReuse) {
  const lp::Problem p = pivoty_lp();
  // One solve on `ws`: its Solution and its pivot-path counter deltas.
  const auto run = [&p](lp::SolverWorkspace* ws) {
    lp::SimplexOptions opt;
    opt.workspace = ws;
    const std::vector<std::int64_t> before = pivot_path_counters();
    lp::Solution sol = lp::solve_lp(p, opt);
    std::vector<std::int64_t> delta = pivot_path_counters();
    for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
    return std::make_pair(std::move(sol), std::move(delta));
  };

  lp::SolverWorkspace fresh;
  const auto [reference, reference_delta] = run(&fresh);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
  ASSERT_GT(reference_delta.front(), 0);  // the solve pivoted

  lp::SolverWorkspace reused;
  (void)run(&reused);
  solve_other_shape(reused);
  const auto [replay, replay_delta] = run(&reused);

  expect_bit_identical(reference, replay);
  EXPECT_EQ(reference_delta, replay_delta);
}

#ifndef GRIDSEC_NO_OBS
/// The first node named `name` under `node`, depth first; a copy, so it
/// outlives the profile it was found in.
obs::ProfileNode find_phase(const obs::ProfileNode& node,
                            const std::string& name) {
  if (node.name == name) return node;
  for (const obs::ProfileNode& child : node.children) {
    obs::ProfileNode found = find_phase(child, name);
    if (found.name == name) return found;
  }
  return {};
}
#endif

TEST(SolverWorkspaceTest, SteadyStateBindsAllocateNothing) {
  // A workspace binds only for a rows_id it did not build A from: bound
  // and cost changes re-solve on the resident A and a changed row
  // rebinds. Once it has bound two shapes, binds that alternate between
  // them allocate nothing.
  lp::Problem p = pivoty_lp();
  lp::SolverWorkspace ws;
  lp::SimplexOptions opt;
  opt.workspace = &ws;
  const auto solve = [&opt](const lp::Problem& problem) {
    ASSERT_EQ(lp::solve_lp(problem, opt).status, lp::SolveStatus::kOptimal);
  };

  solve(p);
  EXPECT_EQ(ws.stats().binds, 1u);
  p.set_rhs(0, p.constraint(0).rhs + 1.0);
  solve(p);
  const std::size_t warm = ws.stats().binds;
  EXPECT_EQ(warm, 2u);
  for (int i = 0; i < 5; ++i) {
    p.set_bounds(1, 0.0, 4.0 + i);
    p.set_objective_coef(2, 1.0 + 0.5 * i);
    solve(p);
  }
  EXPECT_EQ(ws.stats().binds, warm);
  for (int i = 0; i < 5; ++i) {
    p.set_rhs(0, p.constraint(0).rhs + 1.0);
    solve(p);
  }
  EXPECT_EQ(ws.stats().binds, warm + 5);

#ifdef GRIDSEC_NO_OBS
  GTEST_SKIP() << "allocation accounting is compiled out";
#else
  const lp::Problem other = other_shape_lp();
  solve(other);
  obs::Profiler::stop();
  obs::Profiler::reset();
  obs::Profiler::start();
  // The profiler's first frames of a phase allocate its tree nodes, so
  // one alternation runs before the count is read.
  solve(p);
  solve(other);
  const obs::ProfileNode before =
      find_phase(obs::Profiler::snapshot().root, "lp.simplex.setup");
  const std::size_t binds = ws.stats().binds;
  for (int i = 0; i < 4; ++i) {
    solve(p);
    solve(other);
  }
  const obs::ProfileNode after =
      find_phase(obs::Profiler::snapshot().root, "lp.simplex.setup");
  obs::Profiler::stop();
  obs::Profiler::reset();
  EXPECT_EQ(ws.stats().binds, binds + 8);
  EXPECT_EQ(after.count - before.count, 8);
  // Validation allocates only on error, and each bind resizes within the
  // capacity the two shapes left.
  EXPECT_EQ(after.alloc_count - before.alloc_count, 0);
#endif
}

TEST(SolverWorkspaceTest, RowChangesInvalidateResidentA) {
  lp::Problem p = pivoty_lp();
  lp::SolverWorkspace ws;
  lp::SimplexOptions opt;
  opt.workspace = &ws;
  const auto binds_after_solve = [&] {
    EXPECT_EQ(lp::solve_lp(p, opt).status, lp::SolveStatus::kOptimal);
    return ws.stats().binds;
  };
  std::size_t binds = binds_after_solve();
  // Writing the values a row already holds keeps A.
  p.set_rhs(1, p.constraint(1).rhs);
  p.set_constraint_coef(0, 0, p.constraint(0).terms[0].coef);
  EXPECT_EQ(binds_after_solve(), binds);

  p.set_constraint_coef(0, 0, 2.25);
  EXPECT_EQ(binds_after_solve(), ++binds);
  p.set_rhs(1, p.constraint(1).rhs - 0.5);
  EXPECT_EQ(binds_after_solve(), ++binds);
  p.scale_constraint(2, 2.0);
  EXPECT_EQ(binds_after_solve(), ++binds);
  p.add_variable("extra", 0.0, 1.0, 0.5);
  EXPECT_EQ(binds_after_solve(), ++binds);
  // The answers still match a fresh workspace's.
  lp::SimplexOptions fresh_opt;
  lp::SolverWorkspace fresh;
  fresh_opt.workspace = &fresh;
  expect_bit_identical(lp::solve_lp(p, fresh_opt), lp::solve_lp(p, opt));
}

// ---------------------------------------------------------------------------
// The warm checkpoint: a warm solve whose crash the workspace already holds
// skips the crash and its refactorization, and answers bit for bit as a
// fresh workspace does.

/// Solves `p` warm from `warm` on `ws` and on a fresh workspace, expects
/// bit-identical answers and equal pivot paths apart from
/// refactorizations, and returns the refactorizations `ws` saved: 1 when
/// its checkpoint held the crash of `warm`, 0 when it crashed.
std::int64_t checkpoint_saving(const lp::Problem& p, const lp::Basis& warm,
                               lp::SolverWorkspace& ws) {
  const auto run = [&](lp::SolverWorkspace* on) {
    lp::SimplexOptions opt;
    opt.warm_start = warm;
    opt.workspace = on;
    std::vector<std::int64_t> before = pivot_path_counters();
    before.push_back(
        obs::default_registry().counter("lp.simplex.basis_repairs").value());
    lp::Solution sol = lp::solve_lp(p, opt);
    std::vector<std::int64_t> delta = pivot_path_counters();
    delta.push_back(
        obs::default_registry().counter("lp.simplex.basis_repairs").value());
    for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
    return std::make_pair(std::move(sol), std::move(delta));
  };
  lp::SolverWorkspace fresh;
  auto [reference, reference_delta] = run(&fresh);
  auto [resident, resident_delta] = run(&ws);
  expect_bit_identical(reference, resident);
  EXPECT_TRUE(resident.warm_started);
  constexpr std::size_t kRefactorizations = 4;  // in pivot_path_counters
  const std::int64_t saved = reference_delta[kRefactorizations] -
                             resident_delta[kRefactorizations];
  reference_delta[kRefactorizations] = resident_delta[kRefactorizations];
  EXPECT_EQ(reference_delta, resident_delta);
  return saved;
}

TEST(WarmCheckpointTest, KeyedOnBasisAndStaleUpperBounds) {
  lp::Problem p = pivoty_lp();
  const lp::Solution cold = lp::solve_lp(p);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  const auto at_upper = std::find(cold.basis.variables.begin(),
                                  cold.basis.variables.end(),
                                  lp::VarStatus::kAtUpper);
  ASSERT_NE(at_upper, cold.basis.variables.end());
  const int j = static_cast<int>(at_upper - cold.basis.variables.begin());
  lp::Basis other = cold.basis;
  other.variables[static_cast<std::size_t>(j)] = lp::VarStatus::kAtLower;

  lp::SolverWorkspace ws;
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 0);  // first crash
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 1);
  // Bounds and costs are not part of the key.
  p.set_bounds(0, 0.0, 1.0);
  p.set_objective_coef(1, 0.75);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 1);
  // Another warm basis crashes, and then owns the checkpoint.
  EXPECT_EQ(checkpoint_saving(p, other, ws), 0);
  EXPECT_EQ(checkpoint_saving(p, other, ws), 1);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 0);
  // A warm at-upper column whose upper bound turns infinite is demoted by
  // the crash, so the crash is redone; a finite bound again is a new key
  // too.
  const double lower = p.variable(j).lower;
  p.set_bounds(j, lower, lp::kInfinity);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 0);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 1);
  p.set_bounds(j, lower, 50.0);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 0);
  // A row change is a new A, and with it a new key.
  p.set_rhs(0, p.constraint(0).rhs + 0.5);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 0);
}

/// The western-US welfare LP and its optimal basis: the impact sweep's base.
struct OutageSweep {
  lp::Problem base;
  lp::Solution base_solution;

  OutageSweep()
      : base(flow::build_social_welfare_lp(sim::build_western_us().network)),
        base_solution(lp::solve_lp(base)) {}

  /// The base LP with column j out: its upper bound at its lower.
  [[nodiscard]] lp::Problem target(int j) const {
    lp::Problem out = base;
    out.set_bounds(j, out.variable(j).lower, out.variable(j).lower);
    return out;
  }
};

TEST(WarmCheckpointTest, WesternUsOutageSweepMatchesFreshWorkspaces) {
  const OutageSweep sweep;
  ASSERT_EQ(sweep.base_solution.status, lp::SolveStatus::kOptimal);
  lp::SolverWorkspace ws;
  const int targets = sweep.base.num_variables();
  std::int64_t saved = 0;
  for (int j = 0; j < targets; ++j) {
    saved += checkpoint_saving(sweep.target(j), sweep.base_solution.basis, ws);
  }
  // Every target after the first finds the crash of the base basis.
  EXPECT_EQ(saved, targets - 1);
  EXPECT_EQ(ws.stats().binds, 1u);
}

// The checkpoint owns the LU its crash is factorized into. A solve that
// starts from it pivots on that LU, appending etas and raising its pivot
// growth, until its first refactorization, which goes into the working
// LU; the next hit rewinds it. A hit after each kind of solve that leaves
// the checkpoint's LU so must answer as a fresh workspace does.

/// A random LP that x = 0 satisfies: m <= rows, each over about 30% of n
/// columns bounded in [0, u_j], maximizing costs of either sign.
lp::Problem random_lp(std::uint64_t seed, int m, int n) {
  Rng rng(seed);
  lp::Problem p(lp::Objective::kMaximize);
  for (int j = 0; j < n; ++j) {
    p.add_variable(std::string("x").append(std::to_string(j)), 0.0,
                   rng.uniform(1.0, 10.0), rng.uniform(-1.0, 2.0));
  }
  for (int i = 0; i < m; ++i) {
    lp::LinearExpr row;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) row.add(j, rng.uniform(-0.5, 1.0));
    }
    p.add_constraint(std::string("r").append(std::to_string(i)),
                     std::move(row), lp::Sense::kLessEqual,
                     rng.uniform(5.0, 20.0));
  }
  return p;
}

/// `p` with every basic column of `basis` fixed at its lower bound: the
/// dual simplex's re-solve, as after an outage.
lp::Problem pin_basics(const lp::Problem& p, const lp::Basis& basis) {
  lp::Problem out = p;
  for (int j = 0; j < p.num_variables(); ++j) {
    if (basis.variables[static_cast<std::size_t>(j)] ==
        lp::VarStatus::kBasic) {
      out.set_bounds(j, p.variable(j).lower, p.variable(j).lower);
    }
  }
  return out;
}

TEST(WarmCheckpointTest, HitAfterAMidPivotRefactorizationMatchesFresh) {
  const lp::Problem p = random_lp(0, 40, 60);
  const lp::Solution cold = lp::solve_lp(p);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  // Negated costs move the optimum far from the warm basis: phase 2 fills
  // the eta chain.
  lp::Problem negated = p;
  for (int j = 0; j < p.num_variables(); ++j) {
    negated.set_objective_coef(j, -p.variable(j).objective);
  }
  lp::SolverWorkspace ws;
  const lp::detail::WorkspaceImpl& impl = ws.impl();
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 0);
  EXPECT_EQ(checkpoint_saving(negated, cold.basis, ws), 1);
  // It pivoted on the checkpoint's LU until the chain was full, and went
  // on in the working LU.
  EXPECT_EQ(impl.warm.lu.eta_count(),
            lp::BasisFactorization::kRefactorInterval - 1);
  EXPECT_FALSE(impl.on_warm_lu);
  EXPECT_EQ(checkpoint_saving(pin_basics(p, cold.basis), cold.basis, ws), 1);
  EXPECT_EQ(checkpoint_saving(negated, cold.basis, ws), 1);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 1);
}

TEST(WarmCheckpointTest, HitAfterAnInfeasibleSolveMatchesFresh) {
  const lp::Problem p = random_lp(1, 40, 60);
  const lp::Solution cold = lp::solve_lp(p);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  // Every column at half its upper bound or more overfills the rows: the
  // dual simplex pivots on the checkpoint's LU until a dual ray proves
  // infeasibility.
  lp::Problem full = p;
  for (int j = 0; j < p.num_variables(); ++j) {
    full.set_bounds(j, 0.5 * p.variable(j).upper, p.variable(j).upper);
  }
  lp::SolverWorkspace ws;
  const lp::detail::WorkspaceImpl& impl = ws.impl();
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 0);
  lp::SimplexOptions opt;
  opt.warm_start = cold.basis;
  opt.workspace = &ws;
  const lp::Solution infeasible = lp::solve_lp(full, opt);
  ASSERT_EQ(infeasible.status, lp::SolveStatus::kInfeasible);
  EXPECT_TRUE(infeasible.warm_started);
  EXPECT_GT(impl.warm.lu.eta_count(), 0u);
  EXPECT_EQ(checkpoint_saving(pin_basics(p, cold.basis), cold.basis, ws), 1);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 1);
}

TEST(WarmCheckpointTest, HitAfterATimeLimitedSolveMatchesFresh) {
  const lp::Problem p = random_lp(2, 40, 60);
  const lp::Solution cold = lp::solve_lp(p);
  ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal);
  lp::SolverWorkspace ws;
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 0);
  lp::SimplexOptions opt;
  opt.warm_start = cold.basis;
  opt.workspace = &ws;
  opt.time_limit_ms = 1e-9;  // expired by the first pivot
  ASSERT_EQ(lp::solve_lp(pin_basics(p, cold.basis), opt).status,
            lp::SolveStatus::kTimeLimit);
  EXPECT_EQ(checkpoint_saving(pin_basics(p, cold.basis), cold.basis, ws), 1);
  EXPECT_EQ(checkpoint_saving(p, cold.basis, ws), 1);
}

/// A branch-and-bound node relaxation of plan_milp's Eq 8–11 program on a
/// 1e8-scale impact matrix, from the differential fuzz's adversary leg.
/// Solved warm from warm_resume_basis(), its post-solve check finds an
/// attractive column after refactorizing and resumes for one pivot.
lp::Problem warm_resume_lp() {
  lp::Problem p(lp::Objective::kMaximize);
  p.add_variable("x0", 0x0p+0, 0x0p+0, -0x1.30aa92269257bp+27);
  p.add_variable("x1", 0x0p+0, 0x1p+0, -0x1.3f173ff132a24p+27);
  p.add_variable("x2", 0x0p+0, 0x1p+0, -0x1.94ce5951486b1p+25);
  p.add_variable("x3", 0x0p+0, 0x1p+0, 0x0p+0);
  p.add_variable("x4", 0x0p+0, 0x0p+0, 0x1p+0);
  p.add_variable("x5", 0x1p+0, 0x1p+0, 0x0p+0);
  p.add_variable("x6", 0x0p+0, 0x1.c448cc708f78ep+26, 0x1p+0);
  p.add_variable("x7", 0x0p+0, 0x1p+0, 0x0p+0);
  p.add_variable("x8", 0x0p+0, 0x0p+0, 0x1p+0);
  p.add_variable("x9", 0x0p+0, 0x1p+0, 0x0p+0);
  p.add_variable("x10", 0x0p+0, 0x1.68ed134c0f6aap+30, 0x1p+0);
  p.add_variable("x11", 0x0p+0, 0x1p+0, 0x0p+0);
  p.add_variable("x12", 0x0p+0, 0x0p+0, 0x1p+0);
  p.add_constraint("c0",
                   lp::LinearExpr()
                       .add(4, 0x1p+0),
                   lp::Sense::kLessEqual, 0x0p+0);
  p.add_constraint("c1",
                   lp::LinearExpr()
                       .add(4, 0x1p+0)
                       .add(1, 0x1.b444c76dd4e85p+28)
                       .add(3, 0x1.b444c76dd4e85p+28),
                   lp::Sense::kLessEqual, 0x1.b444c76dd4e85p+28);
  p.add_constraint("c2",
                   lp::LinearExpr()
                       .add(6, 0x1p+0)
                       .add(5, -0x1.c448cc708f78ep+26),
                   lp::Sense::kLessEqual, 0x0p+0);
  p.add_constraint("c3",
                   lp::LinearExpr()
                       .add(6, 0x1p+0)
                       .add(1, 0x1.98d5b9d1b33c5p+27)
                       .add(2, -0x1.c448cc708f78ep+26)
                       .add(5, 0x1.98d5b9d1b33c5p+27),
                   lp::Sense::kLessEqual, 0x1.98d5b9d1b33c5p+27);
  p.add_constraint("c4",
                   lp::LinearExpr()
                       .add(8, 0x1p+0),
                   lp::Sense::kLessEqual, 0x0p+0);
  p.add_constraint("c5",
                   lp::LinearExpr()
                       .add(8, 0x1p+0)
                       .add(0, 0x1.de99993017077p+27)
                       .add(2, 0x1.9367c7808779p+27)
                       .add(7, 0x1.b900b0584f404p+28),
                   lp::Sense::kLessEqual, 0x1.b900b0584f404p+28);
  p.add_constraint("c6",
                   lp::LinearExpr()
                       .add(10, 0x1p+0)
                       .add(9, -0x1.68ed134c0f6aap+30),
                   lp::Sense::kLessEqual, 0x0p+0);
  p.add_constraint("c7",
                   lp::LinearExpr()
                       .add(10, 0x1p+0)
                       .add(0, -0x1.73822d59cca5ep+29)
                       .add(1, -0x1.5e57f93e522f5p+29)
                       .add(2, 0x1.18c79f6790a09p+26)
                       .add(9, 0x1.18c79f6790a09p+26),
                   lp::Sense::kLessEqual, 0x1.18c79f6790a09p+26);
  p.add_constraint("c8",
                   lp::LinearExpr()
                       .add(12, 0x1p+0),
                   lp::Sense::kLessEqual, 0x0p+0);
  p.add_constraint("c9",
                   lp::LinearExpr()
                       .add(12, 0x1p+0)
                       .add(0, 0x1.0a804a7f01828p+29)
                       .add(2, 0x1.3fe73822841e8p+28)
                       .add(11, 0x1.aa73e6904391cp+29),
                   lp::Sense::kLessEqual, 0x1.aa73e6904391cp+29);
  p.add_constraint("c10",
                   lp::LinearExpr()
                       .add(0, 0x1.30aa92269257bp+27)
                       .add(1, 0x1.3f173ff132a24p+27)
                       .add(2, 0x1.94ce5951486b1p+25),
                   lp::Sense::kLessEqual, 0x1.20b775b1c54d6p+24);
  p.add_constraint("c11",
                   lp::LinearExpr()
                       .add(0, 0x1p+0)
                       .add(1, 0x1p+0)
                       .add(2, 0x1p+0),
                   lp::Sense::kLessEqual, 0x1.8p+1);
  return p;
}

lp::Basis warm_resume_basis() {
  return lp::parse_basis("v:BLLLLLBLLBBLL|r:BBBLBBLLBBLB").value();
}

TEST(WarmCheckpointTest, HitAfterASolveWhoseCheckResumedMatchesFresh) {
  const lp::Problem p = warm_resume_lp();
  const lp::Basis warm = warm_resume_basis();
  lp::Problem shifted = p;
  shifted.set_objective_coef(6, 0.5);
  shifted.set_bounds(10, 0.0, 0.5 * p.variable(10).upper);
  lp::SolverWorkspace ws;
  EXPECT_EQ(checkpoint_saving(p, warm, ws), 0);  // resumes
  EXPECT_FALSE(ws.impl().on_warm_lu);
  EXPECT_EQ(checkpoint_saving(p, warm, ws), 1);
  EXPECT_EQ(checkpoint_saving(shifted, warm, ws), 1);
  EXPECT_EQ(checkpoint_saving(p, warm, ws), 1);
}

TEST(SolverWorkspaceTest, MilpReuseBitIdenticalAcrossReset) {
  // Small knapsack-style MILP: enough branching for dozens of node
  // relaxations through one workspace.
  lp::Problem p(lp::Objective::kMaximize);
  const double values[] = {5.0, 7.0, 3.0, 9.0, 4.0, 6.0};
  const double weights[] = {2.0, 3.0, 1.0, 4.0, 2.0, 3.0};
  lp::LinearExpr knap;
  for (int j = 0; j < 6; ++j) {
    p.add_binary(std::string("b").append(std::to_string(j)), values[j]);
    knap.add(j, weights[j]);
  }
  p.add_constraint("capacity", std::move(knap), lp::Sense::kLessEqual, 7.5);

  lp::BranchAndBoundOptions options;
  lp::SolverWorkspace fresh;
  options.lp_options.workspace = &fresh;
  const lp::Solution reference = lp::BranchAndBoundSolver(options).solve(p);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
  ASSERT_GT(reference.bnb.lp_solves, 1);

  lp::SolverWorkspace reused;
  solve_other_shape(reused);
  options.lp_options.workspace = &reused;
  const lp::Solution replay = lp::BranchAndBoundSolver(options).solve(p);
  ASSERT_EQ(replay.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(reference.objective, replay.objective);
  EXPECT_EQ(reference.bnb.nodes_explored, replay.bnb.nodes_explored);
  EXPECT_EQ(reference.bnb.lp_solves, replay.bnb.lp_solves);
  ASSERT_EQ(reference.x.size(), replay.x.size());
  for (std::size_t i = 0; i < reference.x.size(); ++i) {
    EXPECT_EQ(reference.x[i], replay.x[i]);
  }
}

TEST(SolverWorkspaceTest, RecoveryLadderReuseBitIdentical) {
  // An ill-conditioned corpus LP drives the ladder (both rungs run
  // through the same thread workspace, sequentially). Two engagements
  // must produce identical certified answers and identical trails.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(GRIDSEC_ILLCOND_DIR)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  ASSERT_FALSE(files.empty());
  std::sort(files.begin(), files.end());
  auto parsed = obs::read_audit_bundle_file(files.front());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();

  const lp::Solution a = robust::solve_with_recovery(parsed->problem);
  const lp::Solution b = robust::solve_with_recovery(parsed->problem);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);
  ASSERT_EQ(a.recovery_trail.size(), b.recovery_trail.size());
  for (std::size_t i = 0; i < a.recovery_trail.size(); ++i) {
    EXPECT_EQ(a.recovery_trail[i].rung, b.recovery_trail[i].rung);
    EXPECT_EQ(a.recovery_trail[i].status, b.recovery_trail[i].status);
    EXPECT_EQ(a.recovery_trail[i].certified, b.recovery_trail[i].certified);
  }
}

TEST(SolverWorkspaceDeathTest, NestedLeaseAsserts) {
  // No solve starts inside another (the recovery ladder and the solve hook
  // run after the lease is released), so a second lease on a busy
  // workspace is a broken contract, not a case to work around.
  lp::SolverWorkspace ws;
  EXPECT_DEATH(
      {
        lp::detail::WorkspaceLease outer(&ws);
        lp::detail::WorkspaceLease inner(&ws);
      },
      "solver workspace leased twice");
}

// ---------------------------------------------------------------------------
// Concurrency (TSan-covered in CI): per-worker workspaces never alias.

TEST(WorkspaceConcurrency, PoolWorkersSolveOnPrivateWorkspaces) {
  const lp::Problem p = pivoty_lp();
  const lp::Solution reference = lp::solve_lp(p);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);

  ThreadPool pool(4);
  std::vector<lp::Solution> results(64);
  parallel_for(&pool, results.size(), [&](std::size_t i) {
    // Each worker solves on its own thread_solver_workspace().
    results[i] = lp::solve_lp(p);
  });
  for (const lp::Solution& sol : results) {
    expect_bit_identical(reference, sol);
  }
}

TEST(WorkspaceConcurrency, EachPoolWorkerKeepsOneThreadWorkspace) {
  // A worker's thread_solver_workspace() is the same object in every
  // parallel_for it serves, and another worker's is another object.
  constexpr std::size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  const auto workspace_per_thread = [&pool] {
    std::mutex mutex;
    std::condition_variable arrived;
    std::map<std::thread::id, const lp::SolverWorkspace*> seen;
    parallel_for(&pool, 4 * kWorkers, [&](std::size_t i) {
      std::unique_lock lock(mutex);
      seen.emplace(std::this_thread::get_id(),
                   &lp::thread_solver_workspace());
      // The first kWorkers items land one per worker (each worker's task
      // blocks in its first item here), so every worker takes part.
      if (i < kWorkers) {
        arrived.notify_all();
        arrived.wait(lock, [&seen] { return seen.size() == kWorkers; });
      }
    });
    return seen;
  };
  const auto first = workspace_per_thread();
  const auto second = workspace_per_thread();
  ASSERT_EQ(first.size(), kWorkers);
  EXPECT_EQ(first, second);
  std::set<const lp::SolverWorkspace*> distinct;
  for (const auto& [thread, ws] : first) distinct.insert(ws);
  EXPECT_EQ(distinct.size(), kWorkers);
}

TEST(WorkspaceConcurrency, WarmSweepsOnPoolWorkersMatchFreshWorkspaces) {
  // Each task sweeps the outages on its worker's workspace, whose resident
  // A and warm checkpoint the worker's earlier tasks left; every answer
  // must match the serial solve on a fresh workspace.
  const OutageSweep sweep;
  ASSERT_EQ(sweep.base_solution.status, lp::SolveStatus::kOptimal);
  const int targets = sweep.base.num_variables();
  std::vector<lp::Solution> reference;
  for (int j = 0; j < targets; ++j) {
    lp::SolverWorkspace fresh;
    lp::SimplexOptions opt;
    opt.warm_start = sweep.base_solution.basis;
    opt.workspace = &fresh;
    reference.push_back(lp::solve_lp(sweep.target(j), opt));
  }

  ThreadPool pool(4);
  constexpr std::size_t kSweeps = 8;
  std::vector<std::vector<lp::Solution>> results(kSweeps);
  parallel_for(&pool, kSweeps, [&](std::size_t i) {
    lp::SimplexOptions opt;
    opt.warm_start = sweep.base_solution.basis;
    lp::Problem p = sweep.base;
    for (int j = 0; j < targets; ++j) {
      const lp::Variable v = p.variable(j);
      p.set_bounds(j, v.lower, v.lower);
      results[i].push_back(lp::solve_lp(p, opt));
      p.set_bounds(j, v.lower, v.upper);
    }
  });
  for (const std::vector<lp::Solution>& sweep_results : results) {
    ASSERT_EQ(sweep_results.size(), reference.size());
    for (std::size_t j = 0; j < reference.size(); ++j) {
      expect_bit_identical(reference[j], sweep_results[j]);
    }
  }
}

TEST(WorkspaceConcurrency, ExplicitWorkspacesSolveConcurrently) {
  const lp::Problem p = pivoty_lp();
  const lp::Solution reference = lp::solve_lp(p);

  ThreadPool pool(4);
  constexpr std::size_t kThreads = 8;
  std::vector<lp::SolverWorkspace> workspaces(kThreads);
  std::vector<lp::Solution> results(kThreads);
  parallel_for(&pool, kThreads, [&](std::size_t i) {
    lp::SimplexOptions opt;
    opt.workspace = &workspaces[i];
    for (int rep = 0; rep < 4; ++rep) {
      solve_other_shape(workspaces[i]);
      results[i] = lp::solve_lp(p, opt);
    }
  });
  for (const lp::Solution& sol : results) {
    expect_bit_identical(reference, sol);
  }
}

}  // namespace
}  // namespace gridsec
