#include "gridsec/robust/faultinject.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "gridsec/core/adversary.hpp"
#include "gridsec/flow/social_welfare.hpp"
#include "gridsec/lp/equilibrate.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/lp/workspace.hpp"
#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/robust/recovery.hpp"
#include "gridsec/sim/scenario.hpp"

namespace gridsec::robust {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr FaultKind kAllKinds[] = {
    FaultKind::kNanCost,          FaultKind::kInfCost,
    FaultKind::kZeroCapacity,     FaultKind::kNegativeCapacity,
    FaultKind::kDisconnectedHub,  FaultKind::kDegenerateTies,
    FaultKind::kExtremeRange,
};

// The numerical-stress pool is deliberately NOT merged into kAllKinds:
// inject_random draws from kAllKinds by index, so growing that array would
// silently reshuffle every historical fuzz seed.
constexpr FaultKind kStressKinds[] = {
    FaultKind::kExtremeDynamicRange,
    FaultKind::kNearDegenerateScaling,
    FaultKind::kBasisDrift,
};

int pick_index(Rng& rng, int n) {
  return static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n)));
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNanCost: return "nan_cost";
    case FaultKind::kInfCost: return "inf_cost";
    case FaultKind::kZeroCapacity: return "zero_capacity";
    case FaultKind::kNegativeCapacity: return "negative_capacity";
    case FaultKind::kDisconnectedHub: return "disconnected_hub";
    case FaultKind::kDegenerateTies: return "degenerate_ties";
    case FaultKind::kExtremeRange: return "extreme_range";
    case FaultKind::kExtremeDynamicRange: return "extreme_dynamic_range";
    case FaultKind::kNearDegenerateScaling: return "near_degenerate_scaling";
    case FaultKind::kBasisDrift: return "basis_drift";
  }
  return "unknown_fault";
}

bool FaultReport::has(FaultKind kind) const {
  return std::find(applied.begin(), applied.end(), kind) != applied.end();
}

std::string to_string(const FaultReport& report) {
  if (report.applied.empty()) return "(no faults)";
  std::string out;
  for (FaultKind k : report.applied) {
    if (!out.empty()) out += "+";
    out += to_string(k);
  }
  return out;
}

bool FaultInjector::inject(lp::Problem& p, FaultKind kind) {
  const bool applied = do_inject(p, kind);
  if (applied) {
    GRIDSEC_LOG(kInfo, "robust.faultinject")
        .field("target", "lp.problem")
        .field("kind", to_string(kind))
        .field("seed", seed_)
        .message("fault injected");
  }
  return applied;
}

bool FaultInjector::inject(flow::Network& net, FaultKind kind) {
  const bool applied = do_inject(net, kind);
  if (applied) {
    GRIDSEC_LOG(kInfo, "robust.faultinject")
        .field("target", "flow.network")
        .field("kind", to_string(kind))
        .field("seed", seed_)
        .message("fault injected");
  }
  return applied;
}

bool FaultInjector::do_inject(lp::Problem& p, FaultKind kind) {
  const int nv = p.num_variables();
  if (nv == 0) return false;
  switch (kind) {
    case FaultKind::kNanCost:
      p.set_objective_coef(pick_index(rng_, nv), kNan);
      return true;
    case FaultKind::kInfCost:
      p.set_objective_coef(pick_index(rng_, nv),
                           rng_.bernoulli(0.5) ? kInf : -kInf);
      return true;
    case FaultKind::kZeroCapacity: {
      // Collapse a variable's range to a point: the LP analogue of a
      // resource whose capacity has been zeroed out.
      const int j = pick_index(rng_, nv);
      p.set_bounds(j, p.variable(j).lower, p.variable(j).lower);
      return true;
    }
    case FaultKind::kNegativeCapacity: {
      // A negative capacity is not representable as bounds (lower > upper
      // is rejected at construction), so inject its semantic equivalent: a
      // row demanding that a variable stay strictly below its own lower
      // bound. Solvers must answer kInfeasible, not misbehave.
      const int j = pick_index(rng_, nv);
      p.add_constraint("fault.negcap", lp::LinearExpr().add(j, 1.0),
                       lp::Sense::kLessEqual,
                       p.variable(j).lower - 1.0 - rng_.uniform(0.0, 10.0));
      return true;
    }
    case FaultKind::kDisconnectedHub:
      return false;  // graph-structural; meaningless for a bare LP
    case FaultKind::kDegenerateTies: {
      if (nv < 2) return false;
      const int a = pick_index(rng_, nv);
      int b = pick_index(rng_, nv - 1);
      if (b >= a) ++b;
      p.set_objective_coef(b, p.variable(a).objective);
      return true;
    }
    case FaultKind::kExtremeRange: {
      const int a = pick_index(rng_, nv);
      const double ca = p.variable(a).objective;
      p.set_objective_coef(a, (ca == 0.0 ? 1.0 : ca) * 1e9);
      const int b = pick_index(rng_, nv);
      p.set_objective_coef(b, p.variable(b).objective * 1e-9);
      return true;
    }
    case FaultKind::kExtremeDynamicRange: {
      // ~1e18 of dynamic range inside one tableau: alternate objective
      // coefficients across 2^±30 and push two rows to opposite extremes.
      // Powers of two keep the mantissas exact, so the conditioning — not
      // representation error — is what the solver fights.
      for (int j = 0; j < nv; ++j) {
        const double c = p.variable(j).objective;
        p.set_objective_coef(j, (c == 0.0 ? 1.0 : c) *
                                    ((j % 2 == 0) ? 0x1p30 : 0x1p-30));
      }
      const int nc = p.num_constraints();
      if (nc > 0) p.scale_constraint(pick_index(rng_, nc), 0x1p30);
      if (nc > 1) {
        int r = pick_index(rng_, nc - 1);
        p.scale_constraint(r, 0x1p-30);
      }
      return true;
    }
    case FaultKind::kNearDegenerateScaling: {
      const int nc = p.num_constraints();
      if (nc == 0) return false;
      // A row whose coefficients sit at ~1e-12–1e-11 parks its candidate
      // pivots at BasisFactorization's 1e-11 pivot tolerance: eta updates
      // get refused, refactorizations churn, and sloppier codes wedge.
      p.scale_constraint(pick_index(rng_, nc),
                         rng_.bernoulli(0.5) ? 1e-12 : 1e12);
      return true;
    }
    case FaultKind::kBasisDrift: {
      const int nc = p.num_constraints();
      if (nc == 0) return false;
      // Append a near-duplicate of an existing row: the pair is linearly
      // dependent to within 1e-12, so bases containing both slacks are
      // numerically singular and warm-started bases drift.
      const lp::Constraint& row = p.constraint(pick_index(rng_, nc));
      lp::LinearExpr expr;
      for (const lp::Term& t : row.terms) {
        expr.add(t.var, t.coef * (1.0 + 1e-12 * rng_.uniform(-1.0, 1.0)));
      }
      if (expr.empty()) return false;
      p.add_constraint("fault.drift", std::move(expr), row.sense,
                       row.rhs * (1.0 + 1e-12 * rng_.uniform(-1.0, 1.0)));
      return true;
    }
  }
  return false;
}

bool FaultInjector::do_inject(flow::Network& net, FaultKind kind) {
  const int ne = net.num_edges();
  if (ne == 0) return false;
  switch (kind) {
    case FaultKind::kNanCost:
      net.set_cost(pick_index(rng_, ne), kNan);
      return true;
    case FaultKind::kInfCost:
      net.set_cost(pick_index(rng_, ne), rng_.bernoulli(0.5) ? kInf : -kInf);
      return true;
    case FaultKind::kZeroCapacity:
      net.set_capacity(pick_index(rng_, ne), 0.0);
      return true;
    case FaultKind::kNegativeCapacity:
      net.set_capacity(pick_index(rng_, ne), -rng_.uniform(1.0, 50.0));
      return true;
    case FaultKind::kDisconnectedHub: {
      // Sever one hub by zeroing every incident capacity — flow-wise
      // isolation without touching the (immutable) topology.
      std::vector<flow::NodeId> hubs;
      for (int n = 0; n < net.num_nodes(); ++n) {
        if (net.node(n).kind != flow::NodeKind::kHub) continue;
        if (net.out_edges(n).empty() && net.in_edges(n).empty()) continue;
        hubs.push_back(n);
      }
      if (hubs.empty()) return false;
      const flow::NodeId h =
          hubs[static_cast<std::size_t>(pick_index(
              rng_, static_cast<int>(hubs.size())))];
      for (flow::EdgeId e : net.out_edges(h)) net.set_capacity(e, 0.0);
      for (flow::EdgeId e : net.in_edges(h)) net.set_capacity(e, 0.0);
      return true;
    }
    case FaultKind::kDegenerateTies: {
      if (ne < 2) return false;
      const int a = pick_index(rng_, ne);
      int b = pick_index(rng_, ne - 1);
      if (b >= a) ++b;
      net.set_cost(b, net.edge(a).cost);
      return true;
    }
    case FaultKind::kExtremeRange: {
      const int a = pick_index(rng_, ne);
      const double ca = net.edge(a).cost;
      net.set_cost(a, (ca == 0.0 ? 1.0 : ca) * 1e9);
      const int b = pick_index(rng_, ne);
      net.set_capacity(b, net.edge(b).capacity * 1e6);
      return true;
    }
    case FaultKind::kExtremeDynamicRange:
    case FaultKind::kNearDegenerateScaling:
    case FaultKind::kBasisDrift:
      return false;  // tableau-conditioning faults; meaningless on a graph
  }
  return false;
}

FaultReport FaultInjector::inject_random(lp::Problem& p, int count) {
  FaultReport report;
  for (int i = 0; i < count; ++i) {
    const FaultKind kind =
        kAllKinds[pick_index(rng_, static_cast<int>(std::size(kAllKinds)))];
    if (inject(p, kind)) report.applied.push_back(kind);
  }
  return report;
}

FaultReport FaultInjector::inject_random(flow::Network& net, int count) {
  FaultReport report;
  for (int i = 0; i < count; ++i) {
    const FaultKind kind =
        kAllKinds[pick_index(rng_, static_cast<int>(std::size(kAllKinds)))];
    if (inject(net, kind)) report.applied.push_back(kind);
  }
  return report;
}

void jitter_costs(lp::Problem& p, Rng& rng, double rel_scale) {
  for (int j = 0; j < p.num_variables(); ++j) {
    const double c = p.variable(j).objective;
    p.set_objective_coef(j, c * (1.0 + rel_scale * rng.uniform(-1.0, 1.0)));
  }
}

void jitter_costs(flow::Network& net, Rng& rng, double rel_scale) {
  for (int e = 0; e < net.num_edges(); ++e) {
    const double c = net.edge(e).cost;
    net.set_cost(e, c * (1.0 + rel_scale * rng.uniform(-1.0, 1.0)));
  }
}

namespace {

// ---------------------------------------------------------------------------
// Differential fuzz harness.

/// Coarse verdict classes for cross-solver agreement. Hard verdicts
/// (optimal / infeasible / unbounded) must agree pairwise; soft verdicts
/// (budget exhaustion, numerical bail-out) are conservative and excused.
enum class VerdictClass { kHardOptimal, kHardInfeasible, kHardUnbounded, kSoft };

VerdictClass classify(lp::SolveStatus s) {
  switch (s) {
    case lp::SolveStatus::kOptimal: return VerdictClass::kHardOptimal;
    case lp::SolveStatus::kInfeasible: return VerdictClass::kHardInfeasible;
    case lp::SolveStatus::kUnbounded: return VerdictClass::kHardUnbounded;
    case lp::SolveStatus::kIterationLimit:
    case lp::SolveStatus::kTimeLimit:
    case lp::SolveStatus::kNumericalError: return VerdictClass::kSoft;
  }
  return VerdictClass::kSoft;
}

struct FuzzContext {
  const FuzzOptions& options;
  FuzzStats& stats;
  std::map<std::string, int> status_tally;

  void tally(lp::SolveStatus s) {
    ++status_tally[std::string(lp::to_string(s))];
  }

  void fail(std::uint64_t seed, const std::string& what) {
    if (stats.failures.size() < 64) {
      std::ostringstream os;
      os << "[seed " << seed << "] " << what;
      stats.failures.push_back(os.str());
    } else if (stats.failures.size() == 64) {
      stats.failures.push_back("... further failures suppressed");
    }
  }
};

/// A generic random LP: unlike the always-feasible social-welfare builds,
/// these hit the infeasible and unbounded verdict paths naturally.
lp::Problem make_random_lp(Rng& rng) {
  lp::Problem p(rng.bernoulli(0.5) ? lp::Objective::kMinimize
                                   : lp::Objective::kMaximize);
  const int nv = 2 + pick_index(rng, 9);
  const int nc = 1 + pick_index(rng, 8);
  for (int j = 0; j < nv; ++j) {
    const double lower = rng.bernoulli(0.7) ? 0.0 : rng.uniform(-5.0, 0.0);
    const double upper =
        rng.bernoulli(0.2) ? lp::kInfinity : lower + rng.uniform(0.0, 30.0);
    p.add_variable(std::string("x").append(std::to_string(j)), lower, upper,
                   rng.uniform(-10.0, 10.0));
  }
  for (int i = 0; i < nc; ++i) {
    lp::LinearExpr expr;
    for (int j = 0; j < nv; ++j) {
      if (rng.bernoulli(0.6)) expr.add(j, rng.uniform(-10.0, 10.0));
    }
    if (expr.empty()) expr.add(pick_index(rng, nv), 1.0);
    const lp::Sense sense = rng.bernoulli(0.4)   ? lp::Sense::kLessEqual
                            : rng.bernoulli(0.5) ? lp::Sense::kGreaterEqual
                                                 : lp::Sense::kEqual;
    p.add_constraint(std::string("c").append(std::to_string(i)),
                     std::move(expr), sense, rng.uniform(-20.0, 20.0));
  }
  return p;
}

flow::Network make_fuzz_grid(Rng& rng) {
  sim::RandomGridOptions grid;
  grid.hubs = 3 + pick_index(rng, 6);
  grid.extra_edge_prob = rng.uniform(0.1, 0.5);
  grid.supply_density = rng.uniform(0.5, 1.0);
  grid.demand_density = rng.uniform(0.5, 1.0);
  return sim::make_random_grid(grid, rng);
}

/// Leg 1: the default simplex vs. a cold re-solve under Bland's rule from
/// the first pivot on the same (possibly faulted) problem. The two take
/// different pivot paths, so a verdict or optimum that depends on the
/// default pricing shows up as a disagreement.
void fuzz_lp_instance(FuzzContext& ctx, std::uint64_t seed, Rng& rng) {
  lp::Problem p =
      rng.bernoulli(0.5)
          ? flow::build_social_welfare_lp(make_fuzz_grid(rng))
          : make_random_lp(rng);

  FaultReport report;
  if (rng.bernoulli(ctx.options.fault_prob)) {
    FaultInjector injector(rng.next());
    report = injector.inject_random(p, 1 + pick_index(rng,
                                            ctx.options.max_faults));
    if (!report.applied.empty()) ++ctx.stats.faulted;
  }

  lp::SimplexOptions so;
  so.time_limit_ms = ctx.options.time_limit_ms;
  const lp::Solution direct = lp::SimplexSolver(so).solve(p);
  so.bland = true;
  const lp::Solution bland = lp::SimplexSolver(so).solve(p);
  ++ctx.stats.lp_checks;
  ctx.tally(direct.status);
  ctx.tally(bland.status);

  // Judge from the problem's final state, not the injection history — a
  // later fault may overwrite an earlier one (e.g. a tie copied over the
  // injected NaN).
  if (!lp::validate_problem(p).is_ok()) {
    // NaN/Inf data must be caught by validation on both paths.
    if (direct.status != lp::SolveStatus::kNumericalError ||
        bland.status != lp::SolveStatus::kNumericalError) {
      ctx.fail(seed, "poisoned LP (" + to_string(report) +
                         ") not rejected: direct=" +
                         std::string(lp::to_string(direct.status)) +
                         " bland=" + std::string(lp::to_string(bland.status)));
    }
    return;
  }

  const VerdictClass a = classify(direct.status);
  const VerdictClass b = classify(bland.status);
  if (a != VerdictClass::kSoft && b != VerdictClass::kSoft && a != b) {
    ctx.fail(seed, "LP verdict disagreement (" + to_string(report) +
                       "): direct=" +
                       std::string(lp::to_string(direct.status)) +
                       " bland=" + std::string(lp::to_string(bland.status)));
    return;
  }
  if (a == VerdictClass::kHardOptimal && b == VerdictClass::kHardOptimal) {
    const double tol =
        ctx.options.objective_tol * (1.0 + std::fabs(direct.objective));
    if (std::fabs(direct.objective - bland.objective) > tol) {
      std::ostringstream os;
      os << "LP objective mismatch (" << to_string(report)
         << "): direct=" << direct.objective << " bland=" << bland.objective;
      ctx.fail(seed, os.str());
    }
    if (!p.is_feasible(direct.x, 1e-5)) {
      ctx.fail(seed, "direct simplex returned infeasible point (" +
                         to_string(report) + ")");
    }
    if (!p.is_feasible(bland.x, 1e-5)) {
      ctx.fail(seed, "Bland re-solve returned infeasible point (" +
                         to_string(report) + ")");
    }
  }
}

/// Leg 2: the specialized adversary branch-and-bound and the linearized
/// MILP against the brute-force subset enumerator.
void fuzz_adversary_instance(FuzzContext& ctx, std::uint64_t seed, Rng& rng) {
  const int na = 2 + pick_index(rng, 4);
  const int nt = 3 + pick_index(rng, 6);
  cps::ImpactMatrix im(na, nt);
  const double scale = rng.bernoulli(0.1) ? 1e9 : 50.0;  // range stress
  double previous = 0.0;
  for (int a = 0; a < na; ++a) {
    for (int t = 0; t < nt; ++t) {
      double v = rng.uniform(-scale, scale);
      if (rng.bernoulli(0.2)) v = 0.0;
      if (rng.bernoulli(0.15)) v = previous;  // exact degenerate ties
      im.set(a, t, v);
      previous = v;
    }
  }

  core::AdversaryConfig config;
  if (rng.bernoulli(0.7)) {
    config.attack_cost.resize(static_cast<std::size_t>(nt));
    for (double& c : config.attack_cost) c = rng.uniform(0.0, scale / 5.0);
  }
  if (rng.bernoulli(0.7)) {
    config.success_prob.resize(static_cast<std::size_t>(nt));
    for (double& pr : config.success_prob) pr = rng.uniform(0.3, 1.0);
  }
  if (rng.bernoulli(0.5)) config.budget = rng.uniform(0.0, scale / 2.0);
  if (rng.bernoulli(0.5)) config.max_targets = 1 + pick_index(rng, nt);

  const core::StrategicAdversary sa(config);
  const core::AttackPlan exact = sa.plan(im);
  const core::AttackPlan milp = sa.plan_milp(im);
  const core::AttackPlan brute = sa.plan_enumerate(im);
  ++ctx.stats.adversary_checks;
  ctx.tally(exact.status);
  ctx.tally(milp.status);
  ctx.tally(brute.status);

  if (!brute.optimal()) {
    ctx.fail(seed, "enumerator did not report optimal: " +
                       std::string(lp::to_string(brute.status)));
    return;
  }
  const double tol = 1e-6 * (1.0 + std::fabs(brute.anticipated_return));
  if (exact.optimal() &&
      std::fabs(exact.anticipated_return - brute.anticipated_return) > tol) {
    std::ostringstream os;
    os << "plan() vs enumerate mismatch: " << exact.anticipated_return
       << " vs " << brute.anticipated_return;
    ctx.fail(seed, os.str());
  }
  if (milp.optimal() &&
      std::fabs(milp.anticipated_return - brute.anticipated_return) > tol) {
    std::ostringstream os;
    os << "plan_milp() vs enumerate mismatch: " << milp.anticipated_return
       << " vs " << brute.anticipated_return;
    ctx.fail(seed, os.str());
  }
  if (!exact.optimal() && classify(exact.status) != VerdictClass::kSoft) {
    ctx.fail(seed, "plan() hard non-optimal verdict: " +
                       std::string(lp::to_string(exact.status)));
  }
}

/// Same out-of-domain predicate as the solve_social_welfare gate; judged
/// on the network's final state because faults may overwrite each other.
bool network_out_of_domain(const flow::Network& net) {
  for (int e = 0; e < net.num_edges(); ++e) {
    const flow::Edge& edge = net.edge(e);
    if (!std::isfinite(edge.cost) || std::isnan(edge.capacity) ||
        edge.capacity < 0.0 || !(edge.loss >= 0.0 && edge.loss < 1.0)) {
      return true;
    }
  }
  return false;
}

/// Leg 3: end-to-end network pipeline — validate() must agree with the
/// solve gate, and no faulted grid may crash the solve.
void fuzz_network_instance(FuzzContext& ctx, std::uint64_t seed, Rng& rng) {
  flow::Network net = make_fuzz_grid(rng);

  FaultReport report;
  if (rng.bernoulli(ctx.options.fault_prob)) {
    FaultInjector injector(rng.next());
    report = injector.inject_random(net, 1 + pick_index(rng,
                                             ctx.options.max_faults));
    if (!report.applied.empty()) ++ctx.stats.faulted;
  }

  const Status valid = net.validate();
  flow::SocialWelfareOptions options;
  options.simplex.time_limit_ms = ctx.options.time_limit_ms;
  const flow::FlowSolution sol = solve_social_welfare(net, options);
  ++ctx.stats.network_checks;
  ctx.tally(sol.status);

  if (network_out_of_domain(net)) {
    if (valid.is_ok()) {
      ctx.fail(seed, "validate() accepted out-of-domain network (" +
                         to_string(report) + ")");
    }
    if (sol.status != lp::SolveStatus::kNumericalError) {
      ctx.fail(seed, "solve accepted out-of-domain network (" +
                         to_string(report) + "): " +
                         std::string(lp::to_string(sol.status)));
    }
    return;
  }
  // In-domain data (possibly Eq-3-inconsistent): the solve must reach a
  // verdict, and an optimal one must be internally consistent.
  if (sol.status == lp::SolveStatus::kNumericalError) {
    ctx.fail(seed, "in-domain network (" + to_string(report) +
                       ") reported kNumericalError");
  }
  if (sol.optimal()) {
    if (!std::isfinite(sol.welfare)) {
      ctx.fail(seed, "optimal solve with non-finite welfare (" +
                         to_string(report) + ")");
    }
    if (sol.flow.size() != static_cast<std::size_t>(net.num_edges())) {
      ctx.fail(seed, "optimal solve with wrong flow dimension");
    }
  }
}

/// Leg 4: warm-started vs. cold simplex. Re-solving the identical problem
/// from its own optimal basis must be an exact (zero-pivot) confirmation
/// of the cold optimum, and three siblings solved warm from the now-stale
/// basis must agree with their cold solves: one with jittered costs, one
/// with a basic column pinned at its lower bound (an outage, the impact
/// matrix's re-solve), and one with a basic column's lower bound moved far
/// past its optimal value, which leaves some siblings infeasible. Bound
/// changes keep the stale basis dual feasible, so the last two are the
/// dual simplex's. Warm starts change the path, never the answer.
///
/// The siblings share the problem's rows, so their warm solves on the
/// thread's workspace reuse its resident A and the warm checkpoint the
/// confirming re-solve left. Each must match, bit for bit, the same solve
/// on a fresh workspace, which builds A and crashes from scratch.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Status, pivot count, point, duals, reduced costs and basis agree to the
/// bit.
bool same_bits(const lp::Solution& a, const lp::Solution& b) {
  return a.status == b.status && a.iterations == b.iterations &&
         same_bits(a.x, b.x) && same_bits(a.duals, b.duals) &&
         same_bits(a.reduced_costs, b.reduced_costs) && a.basis == b.basis;
}

void fuzz_warm_start_instance(FuzzContext& ctx, std::uint64_t seed, Rng& rng) {
  lp::Problem p =
      rng.bernoulli(0.5)
          ? flow::build_social_welfare_lp(make_fuzz_grid(rng))
          : make_random_lp(rng);

  FaultReport report;
  if (rng.bernoulli(ctx.options.fault_prob)) {
    FaultInjector injector(rng.next());
    report = injector.inject_random(p, 1 + pick_index(rng,
                                            ctx.options.max_faults));
    if (!report.applied.empty()) ++ctx.stats.faulted;
  }

  lp::SimplexOptions cold_options;
  cold_options.time_limit_ms = ctx.options.time_limit_ms;
  const lp::Solution cold = lp::SimplexSolver(cold_options).solve(p);
  ++ctx.stats.warm_checks;
  ctx.tally(cold.status);
  if (!cold.optimal()) return;  // no basis to warm-start from

  lp::SimplexOptions warm_options = cold_options;
  warm_options.warm_start = cold.basis;
  obs::Counter& warm_cold_retries =
      obs::default_registry().counter("lp.simplex.warm_cold_retries");
  // A solve that wedged on the warm trajectory and took the documented
  // warm→cold numerical retry legitimately reports the cold path; the
  // retry counter distinguishes it from warm-start plumbing going dead.
  const auto check_warm_path = [&](const lp::Solution& warm,
                                   std::int64_t retries_before,
                                   const std::string& what) {
    if (!warm.warm_started && !cold.basis.empty() &&
        lp::warm_start_enabled() &&
        warm_cold_retries.value() == retries_before) {
      ctx.fail(seed, "warm basis supplied but " + what +
                         " reported cold path (" + to_string(report) + ")");
      return false;
    }
    return true;
  };

  const std::int64_t retries_before = warm_cold_retries.value();
  const lp::Solution warm = lp::SimplexSolver(warm_options).solve(p);
  ctx.tally(warm.status);
  const double tol =
      ctx.options.objective_tol * (1.0 + std::fabs(cold.objective));
  if (!warm.optimal() ||
      std::fabs(warm.objective - cold.objective) > tol) {
    std::ostringstream os;
    os << "warm re-solve diverged (" << to_string(report)
       << "): cold=" << cold.objective << "/" << lp::to_string(cold.status)
       << " warm=" << warm.objective << "/" << lp::to_string(warm.status);
    ctx.fail(seed, os.str());
    return;
  }
  if (!check_warm_path(warm, retries_before, "solve")) return;

  // Each sibling must reach the verdict class and objective of its cold
  // solve; a feasible one must also have kept the warm path.
  const auto check_sibling = [&](const lp::Problem& sibling,
                                 const std::string& what) {
    const lp::Solution sib_cold =
        lp::SimplexSolver(cold_options).solve(sibling);
    const std::int64_t sib_retries_before = warm_cold_retries.value();
    const lp::Solution sib_warm =
        lp::SimplexSolver(warm_options).solve(sibling);
    ctx.tally(sib_cold.status);
    ctx.tally(sib_warm.status);
    const VerdictClass a = classify(sib_cold.status);
    const VerdictClass b = classify(sib_warm.status);
    if (a != VerdictClass::kSoft && b != VerdictClass::kSoft && a != b) {
      ctx.fail(seed, "warm vs cold verdict disagreement on " + what + " (" +
                         to_string(report) + "): cold=" +
                         std::string(lp::to_string(sib_cold.status)) +
                         " warm=" +
                         std::string(lp::to_string(sib_warm.status)));
      return false;
    }
    if (a == VerdictClass::kHardOptimal && b == VerdictClass::kHardOptimal) {
      const double sib_tol =
          ctx.options.objective_tol * (1.0 + std::fabs(sib_cold.objective));
      if (std::fabs(sib_cold.objective - sib_warm.objective) > sib_tol) {
        std::ostringstream os;
        os << "warm vs cold objective mismatch on " << what << " ("
           << to_string(report) << "): cold=" << sib_cold.objective
           << " warm=" << sib_warm.objective;
        ctx.fail(seed, os.str());
        return false;
      }
    }
    if (a == VerdictClass::kHardOptimal &&
        !check_warm_path(sib_warm, sib_retries_before, what)) {
      return false;
    }
    lp::SolverWorkspace fresh;
    lp::SimplexOptions fresh_options = warm_options;
    fresh_options.workspace = &fresh;
    const lp::Solution sib_fresh = lp::solve_lp(sibling, fresh_options);
    // A deadline can cut the two solves at different pivots.
    if (sib_warm.status != lp::SolveStatus::kTimeLimit &&
        sib_fresh.status != lp::SolveStatus::kTimeLimit &&
        !same_bits(sib_warm, sib_fresh)) {
      ctx.fail(seed, "resident warm re-solve of " + what +
                         " differs from a fresh workspace (" +
                         to_string(report) + "): resident " +
                         std::string(lp::to_string(sib_warm.status)) + "/" +
                         std::to_string(sib_warm.iterations) + " fresh " +
                         std::string(lp::to_string(sib_fresh.status)) + "/" +
                         std::to_string(sib_fresh.iterations));
      return false;
    }
    return true;
  };

  lp::Problem jittered = p;
  jitter_costs(jittered, rng, 1e-4);
  if (!check_sibling(jittered, "jittered sibling")) return;

  std::vector<int> basic;
  for (int j = 0; j < p.num_variables(); ++j) {
    if (cold.basis.variables[static_cast<std::size_t>(j)] ==
        lp::VarStatus::kBasic) {
      basic.push_back(j);
    }
  }
  if (basic.empty()) return;
  const auto pick_basic = [&] {
    return basic[static_cast<std::size_t>(
        pick_index(rng, static_cast<int>(basic.size())))];
  };

  lp::Problem outage = p;
  const int out_var = pick_basic();
  const double out_lower = outage.variable(out_var).lower;
  outage.set_bounds(out_var, out_lower, out_lower);
  if (!check_sibling(outage, "outage sibling")) return;

  lp::Problem shifted = p;
  const int far_var = pick_basic();
  const double xj = cold.x[static_cast<std::size_t>(far_var)];
  const double far_lower =
      xj + (1.0 + std::fabs(xj)) * rng.uniform(0.5, 4.0);
  shifted.set_bounds(far_var, far_lower,
                     std::max(far_lower, shifted.variable(far_var).upper));
  check_sibling(shifted, "far-bound sibling");
}

/// Stress leg (options.stress_numerics): instances faulted from the
/// numerical-stress pool, solved three ways and cross-checked.
///   reference — cold start, Bland's rule from the first pivot: slow but
///               numerically boring; its certified optimum is the oracle.
///   plain     — default solve with the recovery ladder suppressed
///               (ScopedRecoveryDisable): measures how often the stress
///               faults actually hurt.
///   ladder    — solve_with_recovery(): must certify the same optimum as
///               the reference, and must resolve (acceptance: >= 80% of)
///               the instances the plain solve loses.
void fuzz_stress_instance(FuzzContext& ctx, std::uint64_t seed, Rng& rng) {
  // Every solve below runs on a deliberately ill-conditioned instance;
  // an armed audit hook (tests link certify_all) would book the resulting
  // uncertifiable "optima" as product defects. This leg carries its own
  // stronger (scale-invariant, tight-tier) cross-checks instead.
  lp::ScopedSolveHookSuppress no_audit;
  lp::Problem p = make_random_lp(rng);
  FaultInjector injector(rng.next());
  FaultReport report;
  const int count = 1 + pick_index(rng, 3);
  for (int f = 0; f < count; ++f) {
    const FaultKind kind = kStressKinds[pick_index(
        rng, static_cast<int>(std::size(kStressKinds)))];
    if (injector.inject(p, kind)) report.applied.push_back(kind);
  }
  if (!report.applied.empty()) ++ctx.stats.faulted;
  if (!lp::validate_problem(p).is_ok()) return;  // stacked scalings can
                                                 // trip the magnitude cap

  // The ladder's own adoption bar: the scale-invariant certificate at 1e-9.
  const lp::Equilibrated eq = lp::equilibrate(p);
  const auto tight = [&](const lp::Solution& sol) {
    return certified_optimum(p, eq, sol, 1e-9);
  };

  // Oracle: cold-start Bland's rule on the equilibrated data — slow,
  // cycling-proof, and well-scaled by construction.
  lp::SimplexOptions ref_options;
  ref_options.time_limit_ms = ctx.options.time_limit_ms;
  ref_options.bland = true;
  lp::Solution reference;
  {
    ScopedRecoveryDisable off;
    reference = eq.scaled_any()
                    ? eq.unscale(lp::SimplexSolver(ref_options)
                                     .solve(eq.scaled()))
                    : lp::SimplexSolver(ref_options).solve(p);
  }
  // The oracle must itself clear the tight certificate — an answer that
  // only certifies loosely cannot adjudicate the tight bar the ladder is
  // held to. Instances with no tightly certifiable optimum (genuinely
  // infeasible/unbounded, wedged, or conditioned beyond 1e-9) are skipped.
  if (!tight(reference)) return;
  ++ctx.stats.recovery_checks;

  lp::SimplexOptions so;
  so.time_limit_ms = ctx.options.time_limit_ms;
  lp::Solution plain;
  {
    ScopedRecoveryDisable off;
    plain = lp::SimplexSolver(so).solve(p);
  }
  ctx.tally(plain.status);
  // The plain solve counts as OK only under the tight certificate — the
  // ladder's own acceptance bar. A plain answer that certifies loosely but
  // not tightly can be arbitrarily wrong (the loose tolerances are what a
  // ~1e-7 dual-sign or equality violation hides beneath); that is the
  // baseline defect the ladder exists to fix, so it tallies as a plain
  // failure rather than a fuzz failure.
  const bool plain_ok = tight(plain);
  if (!plain_ok) ++ctx.stats.recovery_failed_plain;

  const lp::Solution laddered = solve_with_recovery(p, so);
  ctx.tally(laddered.status);
  const bool ladder_strict = tight(laddered);
  const double tol =
      ctx.options.objective_tol * (1.0 + std::fabs(reference.objective));
  // Wrong certified optimum: solve_with_recovery returned an answer that
  // certifies at obs::certify's default 1e-6, contradicts the oracle, and
  // fails the tight certificate. Two answers can disagree by O(1) while both
  // certify with ~1e-16 residuals — e.g. a pair of near-duplicate equality
  // rows whose 1e-12 difference implies an O(1) constraint no tolerance
  // can see. Such an instance is ill-posed below every certificate's
  // discriminating power: neither answer is "wrong", so a mismatch only
  // counts when the suspect answer stops certifying tightly.
  if (certified_optimum(p, eq, laddered, 1e-6) &&
      std::fabs(laddered.objective - reference.objective) > tol &&
      !ladder_strict) {
    std::ostringstream os;
    os << "stress (" << to_string(report)
       << "): ladder certified a wrong optimum: " << laddered.objective
       << " vs reference " << reference.objective;
    ctx.fail(seed, os.str());
    return;
  }
  if (!plain_ok && ladder_strict) ++ctx.stats.recovery_resolved;
  if (plain_ok && !ladder_strict) {
    ctx.fail(seed, "stress (" + to_string(report) +
                       "): ladder lost an instance the plain solve "
                       "certifies: " +
                       std::string(lp::to_string(laddered.status)));
  }
}

}  // namespace

std::string to_string(const FuzzStats& stats) {
  std::ostringstream os;
  os << "fuzz: " << stats.instances << " instances (" << stats.faulted
     << " faulted), " << stats.lp_checks << " LP checks, "
     << stats.adversary_checks << " adversary checks, "
     << stats.network_checks << " network checks, "
     << stats.warm_checks << " warm-start checks, "
     << stats.recovery_checks << " recovery checks ("
     << stats.recovery_resolved << "/" << stats.recovery_failed_plain
     << " plain failures resolved), "
     << stats.failures.size() << " failures\n";
  for (const auto& [status, count] : stats.status_counts) {
    os << "  status " << status << ": " << count << "\n";
  }
  for (const std::string& f : stats.failures) os << "  FAIL " << f << "\n";
  return os.str();
}

FuzzStats run_differential_fuzz(const FuzzOptions& options) {
  FuzzStats stats;
  FuzzContext ctx{options, stats, {}};
  const Rng parent(options.seed);

  // Instances are seeded independently of each other and of execution
  // order, so any failure reproduces from its printed seed alone.
  for (int i = 0; i < options.instances; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    Rng rng = parent.derive_stream(4 * seed);
    fuzz_lp_instance(ctx, seed, rng);
    ++stats.instances;
  }
  for (int i = 0; i < options.instances; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    Rng rng = parent.derive_stream(4 * seed + 1);
    fuzz_adversary_instance(ctx, seed, rng);
    ++stats.instances;
  }
  for (int i = 0; i < options.instances; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    Rng rng = parent.derive_stream(4 * seed + 2);
    fuzz_network_instance(ctx, seed, rng);
    ++stats.instances;
  }
  for (int i = 0; i < options.instances; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    Rng rng = parent.derive_stream(4 * seed + 3);
    fuzz_warm_start_instance(ctx, seed, rng);
    ++stats.instances;
  }
  if (options.stress_numerics) {
    // Independent parent stream: enabling the stress leg must not perturb
    // the four classic legs' historical seed → instance mapping.
    const Rng stress_parent(options.seed ^ 0x9E3779B97F4A7C15ULL);
    for (int i = 0; i < options.instances; ++i) {
      const auto seed = static_cast<std::uint64_t>(i);
      Rng rng = stress_parent.derive_stream(seed);
      fuzz_stress_instance(ctx, seed, rng);
      ++stats.instances;
    }
  }

  stats.status_counts.assign(ctx.status_tally.begin(), ctx.status_tally.end());

  auto& reg = obs::default_registry();
  reg.counter("robust.fuzz.instances").add(stats.instances);
  reg.counter("robust.fuzz.faulted").add(stats.faulted);
  reg.counter("robust.fuzz.failures").add(
      static_cast<long>(stats.failures.size()));
  return stats;
}

}  // namespace gridsec::robust
