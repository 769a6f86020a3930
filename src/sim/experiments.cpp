#include "gridsec/sim/experiments.hpp"

#include <cmath>
#include <utility>

#include "gridsec/util/stats.hpp"

namespace gridsec::sim {
namespace {

/// Mixes experiment coordinates into a sub-seed so every (point, trial)
/// pair draws an independent, reproducible stream.
std::uint64_t point_seed(std::uint64_t base, std::uint64_t a,
                         std::uint64_t b) {
  SplitMix64 sm(base ^ (a * 0x9e3779b97f4a7c15ULL) ^
                (b * 0xc2b2ae3d27d4eb4fULL));
  return sm.next();
}

}  // namespace

std::vector<GainLossPoint> experiment_gain_loss(
    const flow::Network& net, const std::vector<int>& actor_counts,
    const ExperimentOptions& options) {
  std::vector<GainLossPoint> out;
  for (std::size_t pi = 0; pi < actor_counts.size(); ++pi) {
    const int n_actors = actor_counts[pi];
    struct Trial {
      double gain = 0.0, loss = 0.0, net = 0.0;
    };
    auto trials = run_trials<Trial>(
        options.pool, static_cast<std::size_t>(options.trials),
        point_seed(options.seed, pi, 1),
        [&](std::size_t, Rng& rng) -> StatusOr<Trial> {
          auto own =
              cps::Ownership::random(net.num_edges(), n_actors, rng);
          cps::ImpactOptions impact = options.impact;
          impact.warm_start = {};  // every trial's matrix starts cold
          auto im = cps::compute_impact_matrix(net, own, impact);
          if (!im.is_ok()) return im.status();
          Trial t;
          t.gain = im->matrix.aggregate_gain();
          t.loss = im->matrix.aggregate_loss();
          t.net = t.gain + t.loss;
          return t;
        });
    RunningStats gain, loss, netv;
    for (const auto& trial : trials.results) {
      if (!trial.has_value()) continue;
      gain.add(trial->gain);
      loss.add(trial->loss);
      netv.add(trial->net);
    }
    out.push_back({n_actors, gain.mean(), loss.mean(), netv.mean(),
                   gain.std_error(), loss.std_error(),
                   static_cast<int>(trials.failures.size())});
  }
  return out;
}

std::vector<AdversaryNoisePoint> experiment_adversary_noise(
    const flow::Network& net, const AdversaryNoiseConfig& config,
    const ExperimentOptions& options) {
  std::vector<AdversaryNoisePoint> out;
  core::AdversaryConfig sa_cfg;
  sa_cfg.max_targets = config.max_targets;
  const core::StrategicAdversary sa(sa_cfg);

  for (std::size_t ai = 0; ai < config.actor_counts.size(); ++ai) {
    const int n_actors = config.actor_counts[ai];
    // One trial = one ownership draw; the ground-truth impact matrix is
    // computed once and reused across the whole sigma grid.
    struct Trial {
      std::vector<double> anticipated;
      std::vector<double> observed;
    };
    auto trials = run_trials<Trial>(
        options.pool, static_cast<std::size_t>(options.trials),
        point_seed(options.seed, ai, 2),
        [&](std::size_t, Rng& rng) -> StatusOr<Trial> {
          auto own =
              cps::Ownership::random(net.num_edges(), n_actors, rng);
          cps::ImpactOptions impact = options.impact;
          impact.warm_start = {};  // the truth matrix starts cold
          auto truth = cps::compute_impact_matrix(net, own, impact);
          if (!truth.is_ok()) return truth.status();
          impact.warm_start = truth->base_basis;
          Trial t;
          for (double sigma : config.sigmas) {
            cps::NoiseSpec noise;
            noise.sigma = sigma;
            flow::Network view = cps::perturb_knowledge(net, noise, rng);
            auto believed = cps::compute_impact_matrix(view, own, impact);
            if (!believed.is_ok()) return believed.status();
            // Each sigma step perturbs the same topology; the previous
            // step's basis is the closest warm start for the next.
            impact.warm_start = std::move(believed->base_basis);
            core::AttackPlan plan = sa.plan(believed->matrix);
            if (!plan.optimal() && !lp::is_budget_limited(plan.status)) {
              return lp::to_status(plan.status,
                                   "experiment_adversary_noise: SA plan");
            }
            t.anticipated.push_back(plan.anticipated_return);
            t.observed.push_back(
                core::realized_return(truth->matrix, plan, sa_cfg));
          }
          return t;
        });
    for (std::size_t si = 0; si < config.sigmas.size(); ++si) {
      RunningStats ant, obs;
      for (const auto& trial : trials.results) {
        if (!trial.has_value()) continue;
        ant.add(trial->anticipated[si]);
        obs.add(trial->observed[si]);
      }
      out.push_back({n_actors, config.sigmas[si], ant.mean(), obs.mean(),
                     ant.std_error(), obs.std_error(),
                     static_cast<int>(trials.failures.size())});
    }
  }
  return out;
}

std::vector<DefensePoint> experiment_defense(
    const flow::Network& net, const DefenseExperimentConfig& config,
    const ExperimentOptions& options) {
  std::vector<DefensePoint> out;
  for (std::size_t ai = 0; ai < config.actor_counts.size(); ++ai) {
    const int n_actors = config.actor_counts[ai];
    for (std::size_t si = 0; si < config.defender_sigmas.size(); ++si) {
      const double sigma = config.defender_sigmas[si];

      core::GameConfig game;
      game.adversary.max_targets = config.adversary_max_targets;
      game.defender.defense_cost.assign(
          static_cast<std::size_t>(net.num_edges()), config.defense_cost);
      // Fixed system budget split evenly across the actors (§III-D).
      game.defender.budget.assign(
          static_cast<std::size_t>(n_actors),
          config.system_budget_assets * config.defense_cost / n_actors);
      game.defender_noise.sigma = sigma;
      game.speculated_adversary_noise.sigma =
          config.speculated_adversary_sigma;
      game.adversary_noise.sigma = config.adversary_sigma;
      game.pa_samples = config.pa_samples;
      game.collaborative = config.collaborative;
      game.per_defender_views = config.per_defender_views;
      game.impact = options.impact;

      struct Trial {
        double effectiveness = 0.0;
        double gain_undefended = 0.0;
      };
      // Salt is independent of the collaborative flag so individual and
      // collaborative sweeps see identical ownerships and noise draws —
      // their difference is then a paired comparison.
      auto trials = run_trials<Trial>(
          options.pool, static_cast<std::size_t>(options.trials),
          point_seed(options.seed, ai * 1000 + si, 3),
          [&](std::size_t, Rng& rng) -> StatusOr<Trial> {
            auto own =
                cps::Ownership::random(net.num_edges(), n_actors, rng);
            auto outcome = core::play_defense_game(net, own, game, rng);
            if (!outcome.is_ok()) return outcome.status();
            return Trial{outcome->defense_effectiveness,
                         outcome->adversary_gain_undefended};
          });
      RunningStats eff, gain, rel;
      for (const auto& trial : trials.results) {
        if (!trial.has_value()) continue;
        eff.add(trial->effectiveness);
        gain.add(trial->gain_undefended);
        if (std::fabs(trial->gain_undefended) > 1e-6) {
          rel.add(trial->effectiveness / trial->gain_undefended);
        }
      }
      out.push_back({n_actors, sigma, config.collaborative, eff.mean(),
                     eff.std_error(), gain.mean(), rel.mean(),
                     rel.std_error(),
                     static_cast<int>(trials.failures.size())});
    }
  }
  return out;
}

}  // namespace gridsec::sim
