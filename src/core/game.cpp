#include "gridsec/core/game.hpp"

#include <algorithm>
#include <optional>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::core {

double GameOutcome::total_loss_undefended() const {
  double loss = 0.0;
  for (double v : actor_impact_undefended) loss += std::min(v, 0.0);
  return loss;
}

double GameOutcome::total_loss_defended() const {
  double loss = 0.0;
  for (double v : actor_impact_defended) loss += std::min(v, 0.0);
  return loss;
}

double evaluate_attack_with_defense(const cps::ImpactMatrix& truth,
                                    const AttackPlan& plan,
                                    const AdversaryConfig& adversary,
                                    const std::vector<bool>& defended,
                                    double mitigation,
                                    std::vector<double>* actor_impact) {
  if (actor_impact != nullptr) {
    actor_impact->assign(static_cast<std::size_t>(truth.num_actors()), 0.0);
  }
  double gain = 0.0;
  for (int t : plan.targets) {
    const auto ts = static_cast<std::size_t>(t);
    gain -= adversary.attack_cost.empty() ? 0.0 : adversary.attack_cost[ts];
    const double ps =
        adversary.success_prob.empty() ? 1.0 : adversary.success_prob[ts];
    const double effect =
        (ts < defended.size() && defended[ts]) ? (1.0 - mitigation) : 1.0;
    for (int a = 0; a < truth.num_actors(); ++a) {
      const double impact = truth.at(a, t) * ps * effect;
      if (actor_impact != nullptr) {
        (*actor_impact)[static_cast<std::size_t>(a)] += impact;
      }
    }
    for (int a : plan.actors) {
      gain += truth.at(a, t) * ps * effect;
    }
  }
  return gain;
}

StatusOr<GameOutcome> play_defense_game(const flow::Network& truth,
                                        const cps::Ownership& ownership,
                                        const GameConfig& config, Rng& rng) {
  GRIDSEC_TRACE_SPAN("core.game.play");
  static obs::Counter& c_games =
      obs::default_registry().counter("core.game.plays");
  c_games.add();
  GameOutcome out;

  // One warm-start chain through the whole round: every impact matrix in a
  // game is computed over a (noisy) view of the same topology, so each
  // solve's base basis seeds the next phase's base solve — and one welfare
  // model serves every solve in the round (perturb_knowledge never changes
  // topology, so after the first build each sync is an in-place refresh).
  cps::ImpactOptions impact = config.impact;
  flow::SocialWelfareModel round_model;
  if (impact.allocation.model == nullptr) {
    impact.allocation.model = &round_model;
  }

  {  // Defender phase (steps 1-3); the span closes before the SA plans.
  GRIDSEC_TRACE_SPAN("core.game.defender_phase");
  if (!config.per_defender_views) {
    // 1. One shared noisy view and its impact matrix I'.
    flow::Network defender_view =
        cps::perturb_knowledge(truth, config.defender_noise, rng);
    auto defender_im =
        cps::compute_impact_matrix(defender_view, ownership, impact);
    if (!defender_im.is_ok()) return defender_im.status();
    impact.warm_start = defender_im->base_basis;

    // 2. Attack-probability estimate via the defender's SA model on I''.
    auto pa = estimate_attack_probabilities(
        defender_view, ownership, config.adversary,
        config.speculated_adversary_noise, config.pa_samples, rng, impact);
    if (!pa.is_ok()) return pa.status();
    out.pa = std::move(pa.value());

    // 3. Defensive investment on the defender's beliefs.
    out.defense =
        config.collaborative
            ? defend_collaborative(defender_im->matrix, ownership, out.pa,
                                   config.defender)
            : defend_individual(defender_im->matrix, ownership, out.pa,
                                config.defender);
  } else {
    // 1-2. Each defender draws its own view, beliefs, and Pa estimate.
    // Row a of the composite matrix carries actor a's own believed impacts
    // (the only row the defense optimizations read for actor a).
    cps::ImpactMatrix composite(ownership.num_actors(), truth.num_edges());
    std::vector<std::vector<double>> pa_rows;
    pa_rows.reserve(static_cast<std::size_t>(ownership.num_actors()));
    for (int a = 0; a < ownership.num_actors(); ++a) {
      flow::Network view =
          cps::perturb_knowledge(truth, config.defender_noise, rng);
      auto im_a = cps::compute_impact_matrix(view, ownership, impact);
      if (!im_a.is_ok()) return im_a.status();
      impact.warm_start = im_a->base_basis;
      for (int t = 0; t < truth.num_edges(); ++t) {
        composite.set(a, t, im_a->matrix.at(a, t));
      }
      auto pa_a = estimate_attack_probabilities(
          view, ownership, config.adversary,
          config.speculated_adversary_noise, config.pa_samples, rng, impact);
      if (!pa_a.is_ok()) return pa_a.status();
      pa_rows.push_back(std::move(pa_a.value()));
    }
    // Report the mean belief as the headline Pa.
    out.pa.assign(static_cast<std::size_t>(truth.num_edges()), 0.0);
    for (const auto& row : pa_rows) {
      for (std::size_t t = 0; t < row.size(); ++t) out.pa[t] += row[t];
    }
    for (double& v : out.pa) v /= pa_rows.size();
    out.defense = config.collaborative
                      ? defend_collaborative(composite, ownership, pa_rows,
                                             config.defender)
                      : defend_individual(composite, ownership, pa_rows,
                                          config.defender);
  }
  // Budget-limited defenses (node or wall-clock) still carry a feasible
  // investment; degrade to the incumbent rather than failing the game.
  // Hard verdicts (infeasible / unbounded / numerical) surface typed.
  if (!out.defense.optimal() &&
      !(lp::is_budget_limited(out.defense.status) &&
        !out.defense.defended.empty())) {
    return lp::to_status(out.defense.status, "play_defense_game: defense");
  }
  }  // end defender phase

  // 4. The actual adversary plans on its own view. A perfect-knowledge
  // adversary (σ_a = 0) sees the truth itself, so its matrix is the truth's
  // and step 5 realizes the attack on it; perturb_knowledge would draw
  // nothing for it.
  const bool perfect_knowledge = config.adversary_noise.sigma == 0.0;
  std::optional<cps::ImpactResult> truth_im;
  {
    GRIDSEC_TRACE_SPAN("core.game.adversary_phase");
    auto adversary_im =
        perfect_knowledge
            ? cps::compute_impact_matrix(truth, ownership, impact)
            : cps::compute_impact_matrix(
                  cps::perturb_knowledge(truth, config.adversary_noise, rng),
                  ownership, impact);
    if (!adversary_im.is_ok()) return adversary_im.status();
    impact.warm_start = adversary_im->base_basis;
    StrategicAdversary sa(config.adversary);
    out.attack = sa.plan(adversary_im->matrix);
    // A budget-limited plan is a feasible (just unproven) attack — keep it.
    if (!out.attack.optimal() && !lp::is_budget_limited(out.attack.status)) {
      return lp::to_status(out.attack.status, "play_defense_game: adversary");
    }
    if (perfect_knowledge) truth_im = std::move(adversary_im).value();
  }

  // 5. Realize the attack against the ground truth, with and without the
  // defense in place.
  if (!truth_im) {
    auto realized = cps::compute_impact_matrix(truth, ownership, impact);
    if (!realized.is_ok()) return realized.status();
    truth_im = std::move(realized).value();
  }
  const std::vector<bool> no_defense(
      static_cast<std::size_t>(truth.num_edges()), false);
  out.adversary_gain_undefended = evaluate_attack_with_defense(
      truth_im->matrix, out.attack, config.adversary, no_defense, 0.0,
      &out.actor_impact_undefended);
  out.adversary_gain_defended = evaluate_attack_with_defense(
      truth_im->matrix, out.attack, config.adversary, out.defense.defended,
      config.mitigation, &out.actor_impact_defended);
  out.defense_effectiveness =
      out.adversary_gain_undefended - out.adversary_gain_defended;
  GRIDSEC_LOG(kDebug, "core.game")
      .field("collaborative", config.collaborative)
      .field("attack_status", lp::to_string(out.attack.status))
      .field("defense_status", lp::to_string(out.defense.status))
      .field("gain_undefended", out.adversary_gain_undefended)
      .field("gain_defended", out.adversary_gain_defended)
      .field("effectiveness", out.defense_effectiveness);
  return out;
}

}  // namespace gridsec::core
