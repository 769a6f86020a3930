// Tests for the allocation-free hot path: util::Arena (bump allocation,
// high-water recycling, GRIDSEC_ARENA_POISON), lp::SolverWorkspace
// (solve → reset → solve bit-identical reuse across the simplex, MILP
// branch-and-bound, and the numerical-recovery ladder; a nested lease
// asserts), the resident A and the warm checkpoint (what invalidates
// them, and bit-identical answers against fresh workspaces), and
// per-worker workspace isolation on the thread pool.
//
// The WorkspaceConcurrency suite runs under TSan in CI: thread-pool
// workers each own a scratch-slot workspace, and concurrent solves must
// never share one.
#include "gridsec/lp/workspace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/flow/social_welfare.hpp"
#include "gridsec/lp/milp.hpp"
#include "gridsec/lp/problem.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/robust/recovery.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/arena.hpp"
#include "gridsec/util/thread_pool.hpp"
#include "lp/workspace_internal.hpp"

#ifndef GRIDSEC_ILLCOND_DIR
#define GRIDSEC_ILLCOND_DIR "tests/data/illcond"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define GRIDSEC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRIDSEC_TEST_ASAN 1
#endif
#endif

namespace gridsec {
namespace {

// Arm the poison mode before main() — the flag is read once per process,
// on the first arena operation, so a static initializer is early enough.
const bool g_poison_armed = [] {
#ifdef _WIN32
  _putenv_s("GRIDSEC_ARENA_POISON", "1");
#else
  setenv("GRIDSEC_ARENA_POISON", "1", 1);
#endif
  return true;
}();

// ---------------------------------------------------------------------------
// Arena

TEST(ArenaTest, BumpAllocationAndAlignment) {
  util::Arena arena;
  auto* a = arena.allocate(3, 1);
  auto* b = arena.allocate(8, 8);
  auto* c = arena.allocate(64, 64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  const auto s = arena.stats();
  EXPECT_GE(s.used, 3u + 8u + 64u);
  EXPECT_GE(s.capacity, s.used);
}

TEST(ArenaTest, ResetConsolidatesToOneHighWaterBlock) {
  util::Arena arena;
  // Force several growth blocks.
  for (int i = 0; i < 40; ++i) arena.allocate(1024);
  const auto grown = arena.stats();
  EXPECT_GE(grown.blocks, 2u);
  EXPECT_EQ(grown.high_water, grown.used);

  arena.reset();
  const auto recycled = arena.stats();
  EXPECT_EQ(recycled.blocks, 1u);
  EXPECT_EQ(recycled.used, 0u);
  EXPECT_GE(recycled.capacity, grown.high_water);

  // Steady state: the same allocation pattern fits the one block — no new
  // heap blocks, ever again.
  const std::size_t block_allocs = recycled.block_allocations;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 40; ++i) arena.allocate(1024);
    arena.reset();
  }
  const auto steady = arena.stats();
  EXPECT_EQ(steady.block_allocations, block_allocs);
  EXPECT_EQ(steady.blocks, 1u);
}

// A first cycle that spills into a second block skips the alignment
// padding at the first block's end; the consolidated block must still
// hold a contiguous replay of the cycle, padding included, so the arena
// settles into rewinding one block instead of re-growing on every reset.
TEST(ArenaTest, ResetConvergesWhenPaddingStraddlesBlocks) {
  using Cycle = void (*)(util::Arena&);
  const Cycle cycles[] = {
      // 4093 bytes, then a double: a contiguous replay needs 4104 bytes.
      [](util::Arena& a) {
        a.allocate_span<unsigned char>(4093);
        a.allocate_span<double>(1);
      },
      // The same straddle when GRIDSEC_ARENA_POISON rounds sizes to 8.
      [](util::Arena& a) {
        a.allocate_span<unsigned char>(4088);
        a.allocate(8, 16);
      },
      // An over-aligned request past the block alignment.
      [](util::Arena& a) {
        a.allocate_span<unsigned char>(4000);
        a.allocate(64, 64);
      },
  };
  for (const Cycle cycle : cycles) {
    util::Arena arena;
    arena.reset();
    cycle(arena);
    arena.reset();
    cycle(arena);
    const std::size_t settled = arena.stats().block_allocations;
    for (int i = 0; i < 4; ++i) {
      arena.reset();
      cycle(arena);
    }
    const auto s = arena.stats();
    EXPECT_EQ(s.block_allocations, settled);
    EXPECT_EQ(s.blocks, 1u);
    EXPECT_GE(s.capacity, s.high_water);
  }
}

TEST(ArenaTest, ReleaseDropsAllCapacity) {
  util::Arena arena;
  arena.allocate(4096);
  arena.release();
  const auto s = arena.stats();
  EXPECT_EQ(s.capacity, 0u);
  EXPECT_EQ(s.blocks, 0u);
  // And the arena is reusable afterwards.
  EXPECT_NE(arena.allocate(16), nullptr);
}

TEST(ArenaTest, AllocateSpanCarvesTypedElements) {
  util::Arena arena;
  auto ints = arena.allocate_span<int>(100);
  ASSERT_EQ(ints.size(), 100u);
  for (std::size_t i = 0; i < ints.size(); ++i) {
    ints[i] = static_cast<int>(i);
  }
  auto doubles = arena.allocate_span<double>(50);
  ASSERT_EQ(doubles.size(), 50u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(doubles.data()) %
                alignof(double),
            0u);
  // The int span is untouched by the later carve.
  for (std::size_t i = 0; i < ints.size(); ++i) {
    EXPECT_EQ(ints[i], static_cast<int>(i));
  }
  EXPECT_TRUE(arena.allocate_span<char>(0).empty());
}

TEST(ArenaTest, ArenaAllocatorBacksStlContainers) {
  util::Arena arena;
  std::vector<int, util::ArenaAllocator<int>> v{
      util::ArenaAllocator<int>(arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[999], 999);
  EXPECT_GE(arena.stats().used, 1000u * sizeof(int));
}

TEST(ArenaTest, PoisonModeFillsRecycledMemory) {
  ASSERT_TRUE(g_poison_armed);
  ASSERT_TRUE(util::Arena::poison_enabled());
  util::Arena arena;
  auto span = arena.allocate_span<unsigned char>(64);
  std::memset(span.data(), 0xFF, span.size());
  arena.reset();
#ifndef GRIDSEC_TEST_ASAN
  // Without ASan the recycled bytes are readable and must carry the 0xA5
  // fill; under ASan the region is poisoned and reading it would (rightly)
  // abort, which is the stronger version of this assertion.
  auto again = arena.allocate_span<unsigned char>(64);
  for (const unsigned char b : again) {
    ASSERT_EQ(b, 0xA5);
  }
#endif
}

// ---------------------------------------------------------------------------
// Workspace reuse: solve → reset → solve must be bit-identical to a fresh
// workspace (the determinism contract of the arena refactor).

// Dense-enough LP to force a non-trivial pivot sequence.
lp::Problem pivoty_lp() {
  lp::Problem p(lp::Objective::kMinimize);
  for (int j = 0; j < 8; ++j) {
    p.add_variable("x" + std::to_string(j), 0.0, 10.0 + j,
                   (j % 3 == 0 ? -1.0 : 1.0) * (1.0 + 0.25 * j));
  }
  for (int i = 0; i < 6; ++i) {
    lp::LinearExpr row;
    for (int j = 0; j < 8; ++j) {
      row.add(j, ((i + j) % 4) - 1.5);
    }
    p.add_constraint("r" + std::to_string(i), std::move(row),
                     i % 2 == 0 ? lp::Sense::kLessEqual
                                : lp::Sense::kGreaterEqual,
                     i % 2 == 0 ? 20.0 + i : -5.0 - i);
  }
  return p;
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
  reused.reset();
  const lp::Solution after_reset = lp::solve_lp(p, opt);
  const lp::Solution warm_reuse = lp::solve_lp(p, opt);  // no reset at all

  expect_bit_identical(reference, first);
  expect_bit_identical(reference, after_reset);
  expect_bit_identical(reference, warm_reuse);
}

// The counters that trace a solve's pivot path. Equal per-solve deltas on
// a replay mean the same pivots, bound flips, eta updates and
// refactorizations ran.
std::vector<std::int64_t> pivot_path_counters() {
  static const char* const kNames[] = {
      "lp.simplex.pivots",           "lp.simplex.degenerate_pivots",
      "lp.simplex.bound_flips",      "lp.simplex.eta_updates",
      "lp.simplex.refactorizations", "lp.simplex.bland_pivots"};
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
  reused.reset();
  const auto [replay, replay_delta] = run(&reused);

  expect_bit_identical(reference, replay);
  EXPECT_EQ(reference_delta, replay_delta);
}

TEST(SolverWorkspaceTest, SteadyStateBindsWithoutGrowingTheArena) {
  // A workspace binds only for a rows_id it did not build A from: bound
  // and cost changes re-solve on the resident A, a changed row rebinds,
  // and once the arena has seen the shape no bind grows it.
  lp::Problem p = pivoty_lp();
  lp::SolverWorkspace ws;
  lp::SimplexOptions opt;
  opt.workspace = &ws;
  const auto solve = [&] {
    ASSERT_EQ(lp::solve_lp(p, opt).status, lp::SolveStatus::kOptimal);
  };

  solve();
  EXPECT_EQ(ws.stats().binds, 1u);
  p.set_rhs(0, p.constraint(0).rhs + 1.0);
  solve();
  const auto warm = ws.stats();
  EXPECT_EQ(warm.binds, 2u);
  for (int i = 0; i < 5; ++i) {
    p.set_bounds(1, 0.0, 4.0 + i);
    p.set_objective_coef(2, 1.0 + 0.5 * i);
    solve();
  }
  EXPECT_EQ(ws.stats().binds, warm.binds);
  for (int i = 0; i < 5; ++i) {
    p.set_rhs(0, p.constraint(0).rhs + 1.0);
    solve();
  }
  const auto steady = ws.stats();
  EXPECT_EQ(steady.binds, warm.binds + 5);
  // The arena stopped growing once it saw the problem shape.
  EXPECT_EQ(steady.arena_capacity, warm.arena_capacity);
  EXPECT_EQ(steady.arena_high_water, warm.arena_high_water);
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

TEST(SolverWorkspaceTest, MilpReuseBitIdenticalAcrossReset) {
  // Small knapsack-style MILP: enough branching for dozens of node
  // relaxations through one workspace.
  lp::Problem p(lp::Objective::kMaximize);
  const double values[] = {5.0, 7.0, 3.0, 9.0, 4.0, 6.0};
  const double weights[] = {2.0, 3.0, 1.0, 4.0, 2.0, 3.0};
  lp::LinearExpr knap;
  for (int j = 0; j < 6; ++j) {
    p.add_binary("b" + std::to_string(j), values[j]);
    knap.add(j, weights[j]);
  }
  p.add_constraint("capacity", std::move(knap), lp::Sense::kLessEqual, 7.5);

  lp::BranchAndBoundOptions options;
  lp::SolverWorkspace ws;
  options.lp_options.workspace = &ws;

  const lp::Solution reference = lp::BranchAndBoundSolver(options).solve(p);
  ASSERT_EQ(reference.status, lp::SolveStatus::kOptimal);
  ASSERT_GT(reference.bnb.lp_solves, 1);

  ws.reset();
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
    // Workers resolve thread_solver_workspace() to their scratch slot;
    // the off-pool caller (serial fallback) uses its thread_local.
    results[i] = lp::solve_lp(p);
  });
  for (const lp::Solution& sol : results) {
    expect_bit_identical(reference, sol);
  }
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
      results[i] = lp::solve_lp(p, opt);
      workspaces[i].reset();
    }
  });
  for (const lp::Solution& sol : results) {
    expect_bit_identical(reference, sol);
  }
}

}  // namespace
}  // namespace gridsec
