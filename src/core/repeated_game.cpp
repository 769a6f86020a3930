#include "gridsec/core/repeated_game.hpp"

#include <algorithm>

namespace gridsec::core {

double RepeatedGameResult::total_adversary_gain() const {
  double total = 0.0;
  for (const RoundOutcome& r : rounds) total += r.adversary_gain;
  return total;
}

double RepeatedGameResult::total_defender_losses() const {
  double total = 0.0;
  for (const RoundOutcome& r : rounds) total += r.defender_losses;
  return total;
}

StatusOr<RepeatedGameResult> play_repeated_game(
    const flow::Network& truth, const cps::Ownership& ownership,
    const RepeatedGameConfig& config, Rng& rng) {
  GRIDSEC_ASSERT(config.rounds > 0);
  GRIDSEC_ASSERT(config.learning_rate >= 0.0 && config.learning_rate <= 1.0);
  const GameConfig& game = config.game;

  // One welfare model serves every impact compute across all rounds: the
  // views are data perturbations of one topology (see play_defense_game).
  cps::ImpactOptions impact = game.impact;
  flow::SocialWelfareModel series_model;
  if (impact.allocation.model == nullptr) {
    impact.allocation.model = &series_model;
  }

  auto truth_im = cps::compute_impact_matrix(truth, ownership, impact);
  if (!truth_im.is_ok()) return truth_im.status();

  // Round 0 beliefs: the defender's one-shot model-based estimate, from its
  // noisy view (same procedure as the one-shot game).
  flow::Network defender_view =
      cps::perturb_knowledge(truth, game.defender_noise, rng);
  auto defender_im =
      cps::compute_impact_matrix(defender_view, ownership, impact);
  if (!defender_im.is_ok()) return defender_im.status();
  auto pa0 = estimate_attack_probabilities(
      defender_view, ownership, game.adversary,
      game.speculated_adversary_noise, game.pa_samples, rng, impact);
  if (!pa0.is_ok()) return pa0.status();

  RepeatedGameResult out;
  std::vector<double> pa = std::move(pa0.value());
  std::vector<double> hits(static_cast<std::size_t>(truth.num_edges()), 0.0);
  StrategicAdversary sa(game.adversary);
  // A perfect-knowledge adversary's view is the truth, and its matrix would
  // be computed from exactly truth_im's inputs every round: plan on
  // truth_im instead.
  const bool perfect_knowledge = game.adversary_noise.sigma == 0.0;

  for (int round = 0; round < config.rounds; ++round) {
    RoundOutcome ro;
    // Defender invests on current beliefs.
    ro.defense = game.collaborative
                     ? defend_collaborative(defender_im->matrix, ownership,
                                            pa, game.defender)
                     : defend_individual(defender_im->matrix, ownership, pa,
                                         game.defender);
    if (!ro.defense.optimal()) {
      return Status::internal("play_repeated_game: defense MILP failed");
    }

    // Adversary strikes from a fresh noisy view.
    if (perfect_knowledge) {
      ro.attack = sa.plan(truth_im->matrix);
    } else {
      flow::Network adv_view =
          cps::perturb_knowledge(truth, game.adversary_noise, rng);
      auto adv_im = cps::compute_impact_matrix(adv_view, ownership, impact);
      if (!adv_im.is_ok()) return adv_im.status();
      ro.attack = sa.plan(adv_im->matrix);
    }
    if (ro.attack.status == lp::SolveStatus::kInfeasible ||
        ro.attack.status == lp::SolveStatus::kUnbounded) {
      return Status::internal("play_repeated_game: adversary plan failed");
    }

    // Realize against the truth, mitigated where defended.
    std::vector<double> actor_impact;
    ro.adversary_gain = evaluate_attack_with_defense(
        truth_im->matrix, ro.attack, game.adversary, ro.defense.defended,
        game.mitigation, &actor_impact);
    for (double v : actor_impact) ro.defender_losses += std::min(v, 0.0);

    // Learn: blend the observed attack frequency into Pa.
    for (int t : ro.attack.targets) {
      hits[static_cast<std::size_t>(t)] += 1.0;
    }
    const double n = static_cast<double>(round + 1);
    for (std::size_t t = 0; t < pa.size(); ++t) {
      pa[t] = (1.0 - config.learning_rate) * pa[t] +
              config.learning_rate * (hits[t] / n);
    }
    out.rounds.push_back(std::move(ro));
  }
  out.final_pa = std::move(pa);
  return out;
}

}  // namespace gridsec::core
