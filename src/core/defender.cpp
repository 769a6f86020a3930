#include "gridsec/core/defender.hpp"

#include <algorithm>
#include <string>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::core {
namespace {

constexpr double kImpactTol = 1e-9;

void log_plan(const char* mode, const DefensePlan& plan) {
  std::size_t defended = 0;
  for (const bool d : plan.defended) defended += d ? 1 : 0;
  double spend = 0.0;
  for (const double s : plan.spending) spend += s;
  GRIDSEC_LOG(kDebug, "core.defender")
      .field("mode", mode)
      .field("status", lp::to_string(plan.status))
      .field("defended", defended)
      .field("spend", spend)
      .field("objective", plan.objective);
}

void validate_config(const DefenderConfig& cfg, int n_targets, int n_actors) {
  GRIDSEC_ASSERT_MSG(
      cfg.defense_cost.size() == static_cast<std::size_t>(n_targets),
      "defense_cost must cover every target");
  GRIDSEC_ASSERT_MSG(cfg.budget.size() == static_cast<std::size_t>(n_actors),
                     "budget must cover every actor");
  GRIDSEC_ASSERT_MSG(cfg.success_prob.empty() ||
                         cfg.success_prob.size() ==
                             static_cast<std::size_t>(n_targets),
                     "success_prob must cover every target when given");
}

double ps_of(const DefenderConfig& cfg, int target) {
  if (cfg.success_prob.empty()) return 1.0;
  return cfg.success_prob[static_cast<std::size_t>(target)];
}

}  // namespace

int DefensePlan::num_defended() const {
  return static_cast<int>(
      std::count(defended.begin(), defended.end(), true));
}

DefensePlan defend_individual(const cps::ImpactMatrix& im,
                              const cps::Ownership& ownership,
                              const std::vector<double>& pa,
                              const DefenderConfig& config) {
  std::vector<std::vector<double>> rows(
      static_cast<std::size_t>(im.num_actors()), pa);
  return defend_individual(im, ownership, rows, config);
}

DefensePlan defend_individual(
    const cps::ImpactMatrix& im, const cps::Ownership& ownership,
    const std::vector<std::vector<double>>& pa_per_actor,
    const DefenderConfig& config) {
  GRIDSEC_TRACE_SPAN("core.defender.individual");
  static obs::Counter& c_plans =
      obs::default_registry().counter("core.defender.individual_plans");
  c_plans.add();
  const int nt = im.num_targets();
  const int na = im.num_actors();
  validate_config(config, nt, na);
  GRIDSEC_ASSERT(pa_per_actor.size() == static_cast<std::size_t>(na));
  for (const auto& row : pa_per_actor) {
    GRIDSEC_ASSERT(row.size() == static_cast<std::size_t>(nt));
  }
  GRIDSEC_ASSERT(ownership.num_assets() == nt);

  DefensePlan out;
  out.status = lp::SolveStatus::kOptimal;
  out.defended.assign(static_cast<std::size_t>(nt), false);
  out.spending.assign(static_cast<std::size_t>(na), 0.0);

  // Eq 12 decomposes per actor: an independent knapsack over T_a.
  for (int a = 0; a < na; ++a) {
    const std::vector<flow::EdgeId> assets = ownership.assets_of(a);
    if (assets.empty()) continue;

    lp::Problem p(lp::Objective::kMaximize);
    std::vector<int> dvar;
    lp::LinearExpr budget_row;
    double baseline = 0.0;  // Σ Pa·I with nothing defended
    const std::vector<double>& pa =
        pa_per_actor[static_cast<std::size_t>(a)];
    for (flow::EdgeId t : assets) {
      const auto ts = static_cast<std::size_t>(t);
      const double exposure = pa[ts] * ps_of(config, t) * im.at(a, t);
      baseline += exposure;
      // Defending removes the exposure and incurs the cost:
      // coefficient of D(t) in Eq 12 is (-exposure - Cd(t)).
      dvar.push_back(p.add_binary(std::string("D").append(std::to_string(t)),
                                  -exposure - config.defense_cost[ts]));
      budget_row.add(dvar.back(), config.defense_cost[ts]);
    }
    p.add_constraint("MD", std::move(budget_row), lp::Sense::kLessEqual,
                     config.budget[static_cast<std::size_t>(a)]);
    lp::Solution sol = lp::solve_milp(p);
    if (!sol.optimal()) {
      out.status = sol.status;
      log_plan("individual", out);
      return out;
    }
    out.objective += baseline + sol.objective;
    for (std::size_t k = 0; k < assets.size(); ++k) {
      if (sol.x[static_cast<std::size_t>(dvar[k])] > 0.5) {
        const auto ts = static_cast<std::size_t>(assets[k]);
        out.defended[ts] = true;
        out.spending[static_cast<std::size_t>(a)] +=
            config.defense_cost[ts];
      }
    }
  }
  log_plan("individual", out);
  return out;
}

DefensePlan defend_collaborative(
    const cps::ImpactMatrix& im, const cps::Ownership& ownership,
    const std::vector<std::vector<double>>& pa_per_actor,
    const DefenderConfig& config) {
  GRIDSEC_TRACE_SPAN("core.defender.collaborative");
  static obs::Counter& c_plans =
      obs::default_registry().counter("core.defender.collaborative_plans");
  c_plans.add();
  const int nt = im.num_targets();
  const int na = im.num_actors();
  validate_config(config, nt, na);
  GRIDSEC_ASSERT(ownership.num_assets() == nt);
  GRIDSEC_ASSERT(pa_per_actor.size() == static_cast<std::size_t>(na));
  for (const auto& row : pa_per_actor) {
    GRIDSEC_ASSERT(row.size() == static_cast<std::size_t>(nt));
  }

  // Cooperating-defender sets CD(t) = {a : IM[a,t] < 0} and the
  // impact-proportional cost shares Ccd(a,t) (Eq 15).
  std::vector<std::vector<int>> cd(static_cast<std::size_t>(nt));
  std::vector<std::vector<double>> share(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    double total_harm = 0.0;
    for (int a = 0; a < na; ++a) {
      if (im.at(a, t) < -kImpactTol) {
        cd[static_cast<std::size_t>(t)].push_back(a);
        total_harm += im.at(a, t);
      }
    }
    for (int a : cd[static_cast<std::size_t>(t)]) {
      share[static_cast<std::size_t>(t)].push_back(
          config.defense_cost[static_cast<std::size_t>(t)] * im.at(a, t) /
          total_harm);
    }
  }

  // Joint MILP (Eqs 16-18) over all targets that anyone would defend.
  lp::Problem p(lp::Objective::kMaximize);
  std::vector<int> dvar(static_cast<std::size_t>(nt), -1);
  double baseline = 0.0;
  for (int t = 0; t < nt; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    if (cd[ts].empty()) continue;  // nobody is hurt: not defendable jointly
    double exposure = 0.0;  // Σ_{j∈CD(t)} Pa(j,t)·IM[j,t]
    for (int j : cd[ts]) {
      exposure += pa_per_actor[static_cast<std::size_t>(j)][ts] *
                  ps_of(config, t) * im.at(j, t);
    }
    baseline += exposure;
    dvar[ts] = p.add_binary(std::string("D").append(std::to_string(t)),
                            -exposure - config.defense_cost[ts]);
  }
  // Per-actor budgets on the cost shares (Eq 18).
  for (int a = 0; a < na; ++a) {
    lp::LinearExpr row;
    for (int t = 0; t < nt; ++t) {
      const auto ts = static_cast<std::size_t>(t);
      if (dvar[ts] < 0) continue;
      for (std::size_t k = 0; k < cd[ts].size(); ++k) {
        if (cd[ts][k] == a) {
          row.add(dvar[ts], share[ts][k]);
          break;
        }
      }
    }
    if (!row.empty()) {
      p.add_constraint("MD" + std::to_string(a), std::move(row),
                       lp::Sense::kLessEqual,
                       config.budget[static_cast<std::size_t>(a)]);
    }
  }

  DefensePlan out;
  lp::Solution sol = lp::solve_milp(p);
  out.status = sol.status;
  out.defended.assign(static_cast<std::size_t>(nt), false);
  out.spending.assign(static_cast<std::size_t>(na), 0.0);
  if (!sol.optimal()) {
    log_plan("collaborative", out);
    return out;
  }
  out.objective = baseline + sol.objective;
  for (int t = 0; t < nt; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    if (dvar[ts] < 0) continue;
    if (sol.x[static_cast<std::size_t>(dvar[ts])] > 0.5) {
      out.defended[ts] = true;
      for (std::size_t k = 0; k < cd[ts].size(); ++k) {
        out.spending[static_cast<std::size_t>(cd[ts][k])] += share[ts][k];
      }
    }
  }
  return out;
}

DefensePlan defend_collaborative(const cps::ImpactMatrix& im,
                                 const cps::Ownership& ownership,
                                 const std::vector<double>& pa,
                                 const DefenderConfig& config) {
  std::vector<std::vector<double>> rows(
      static_cast<std::size_t>(im.num_actors()), pa);
  return defend_collaborative(im, ownership, rows, config);
}

StatusOr<std::vector<double>> estimate_attack_probabilities(
    const flow::Network& defender_view, const cps::Ownership& ownership,
    const AdversaryConfig& adversary, const cps::NoiseSpec& speculated_noise,
    int num_samples, Rng& rng, const cps::ImpactOptions& impact_options) {
  GRIDSEC_TRACE_SPAN("core.defender.estimate_pa");
  GRIDSEC_ASSERT(num_samples > 0);
  std::vector<double> pa(static_cast<std::size_t>(defender_view.num_edges()),
                         0.0);
  StrategicAdversary sa(adversary);
  cps::ImpactOptions impact = impact_options;
  for (int s = 0; s < num_samples; ++s) {
    // I'' — the defender's speculation of what the adversary believes.
    flow::Network adv_view =
        cps::perturb_knowledge(defender_view, speculated_noise, rng);
    auto im = cps::compute_impact_matrix(adv_view, ownership, impact);
    if (!im.is_ok()) return im.status();
    // Each sample re-perturbs the same topology; carry the basis forward.
    impact.warm_start = im->base_basis;
    AttackPlan plan = sa.plan(im->matrix);
    // Budget-limited plans are feasible samples of the SA's behaviour;
    // anything else (infeasible / unbounded / numerical) is a typed error.
    if (!plan.optimal() && !lp::is_budget_limited(plan.status)) {
      return lp::to_status(plan.status, "estimate_attack_probabilities");
    }
    for (int t : plan.targets) {
      pa[static_cast<std::size_t>(t)] += 1.0;
    }
  }
  for (double& v : pa) v /= num_samples;
  return pa;
}

}  // namespace gridsec::core
