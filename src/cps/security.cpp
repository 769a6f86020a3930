#include "gridsec/cps/security.hpp"

#include <cmath>
#include <string>

#include "gridsec/lp/milp.hpp"

namespace gridsec::cps {

SecurityPosture::SecurityPosture(int num_targets, SecurityModel model)
    : layers_(static_cast<std::size_t>(num_targets), 0), model_(model) {
  GRIDSEC_ASSERT(num_targets >= 0);
  GRIDSEC_ASSERT(model.base_success_prob >= 0.0 &&
                 model.base_success_prob <= 1.0);
  GRIDSEC_ASSERT(model.success_decay_per_layer >= 0.0 &&
                 model.success_decay_per_layer <= 1.0);
}

int SecurityPosture::layers(int target) const {
  GRIDSEC_ASSERT(target >= 0 && target < num_targets());
  return layers_[static_cast<std::size_t>(target)];
}

void SecurityPosture::set_layers(int target, int layers) {
  GRIDSEC_ASSERT(target >= 0 && target < num_targets());
  GRIDSEC_ASSERT(layers >= 0);
  layers_[static_cast<std::size_t>(target)] = layers;
}

double SecurityPosture::success_prob(int target) const {
  return model_.base_success_prob *
         std::pow(model_.success_decay_per_layer, layers(target));
}

double SecurityPosture::attack_cost(int target) const {
  return model_.base_attack_cost +
         model_.attack_cost_per_layer * layers(target);
}

std::vector<double> SecurityPosture::success_prob_vector() const {
  std::vector<double> out(layers_.size());
  for (int t = 0; t < num_targets(); ++t) {
    out[static_cast<std::size_t>(t)] = success_prob(t);
  }
  return out;
}

std::vector<double> SecurityPosture::attack_cost_vector() const {
  std::vector<double> out(layers_.size());
  for (int t = 0; t < num_targets(); ++t) {
    out[static_cast<std::size_t>(t)] = attack_cost(t);
  }
  return out;
}

int LayeredDefensePlan::total_layers() const {
  int total = 0;
  for (int k : added_layers) total += k;
  return total;
}

LayeredDefensePlan defend_layered(const ImpactMatrix& im,
                                  const Ownership& ownership,
                                  const std::vector<double>& pa,
                                  const SecurityPosture& posture,
                                  const LayeredDefenseConfig& config) {
  const int nt = im.num_targets();
  const int na = im.num_actors();
  GRIDSEC_ASSERT(posture.num_targets() == nt);
  GRIDSEC_ASSERT(pa.size() == static_cast<std::size_t>(nt));
  GRIDSEC_ASSERT(config.budget.size() == static_cast<std::size_t>(na));
  GRIDSEC_ASSERT(ownership.num_assets() == nt);

  LayeredDefensePlan out;
  out.status = lp::SolveStatus::kOptimal;
  out.added_layers.assign(static_cast<std::size_t>(nt), 0);
  out.spending.assign(static_cast<std::size_t>(na), 0.0);

  const double decay = posture.model().success_decay_per_layer;

  // Decomposes per actor (each invests only in its own assets).
  for (int a = 0; a < na; ++a) {
    const auto assets = ownership.assets_of(a);
    if (assets.empty()) continue;

    lp::Problem p(lp::Objective::kMaximize);
    // Unit variable u_{t,j}: the j-th *additional* layer on target t.
    // Avoided expected loss of that unit: Pa·(−I)·Ps_current·decay^{j−1}·(1−decay).
    struct Unit {
      flow::EdgeId target;
      int var;
    };
    std::vector<Unit> units;
    lp::LinearExpr budget_row;
    for (flow::EdgeId t : assets) {
      const auto ts = static_cast<std::size_t>(t);
      const double harm = -im.at(a, t);  // positive when the actor is hurt
      if (harm <= 0.0) continue;
      const double ps_now = posture.success_prob(t);
      int prev = -1;
      for (int j = 1; j <= config.max_layers_per_target; ++j) {
        const double avoided =
            pa[ts] * harm * ps_now * std::pow(decay, j - 1) * (1.0 - decay);
        const std::string layer =
            std::to_string(t).append("_").append(std::to_string(j));
        const int u = p.add_binary(std::string("u").append(layer),
                                   avoided - config.layer_cost);
        budget_row.add(u, config.layer_cost);
        // Ordering: the j-th layer only after the (j-1)-th.
        if (prev >= 0) {
          p.add_constraint(std::string("ord").append(layer),
                           lp::LinearExpr().add(u, 1.0).add(prev, -1.0),
                           lp::Sense::kLessEqual, 0.0);
        }
        units.push_back({t, u});
        prev = u;
      }
    }
    if (units.empty()) continue;
    p.add_constraint("MD", std::move(budget_row), lp::Sense::kLessEqual,
                     config.budget[static_cast<std::size_t>(a)]);
    lp::Solution sol = lp::solve_milp(p);
    if (!sol.optimal()) {
      out.status = sol.status;
      return out;
    }
    out.objective += sol.objective;
    for (const Unit& u : units) {
      if (sol.x[static_cast<std::size_t>(u.var)] > 0.5) {
        ++out.added_layers[static_cast<std::size_t>(u.target)];
        out.spending[static_cast<std::size_t>(a)] += config.layer_cost;
      }
    }
  }
  return out;
}

}  // namespace gridsec::cps
