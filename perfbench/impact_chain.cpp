// impact_chain: Experiment 2's per-trial kernel on one thread. For each
// ownership draw of 12 actors: the truth impact matrix, then for each noise
// level sigma in {0, 0.05, 0.1, 0.2, 0.4, 0.8} one noisy view, its impact
// matrix warm-seeded from the previous view's base basis, the strategic
// adversary's 6-target plan on it and the plan's realized return on the
// truth. The unit is one impact matrix, timed individually.
//
// This is defense_game's dominant kernel without sim's dispatch or the
// game logic: an lp, flow or cps gain shows here too, while a sim gain
// reads flat.
#include <cmath>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "gridsec/core/adversary.hpp"
#include "gridsec/cps/impact.hpp"
#include "gridsec/cps/perturbation.hpp"
#include "gridsec/flow/social_welfare.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/rng.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace gridsec;

constexpr int kActors = 12;
constexpr int kMaxTargets = 6;
constexpr double kSigmas[] = {0.0, 0.05, 0.1, 0.2, 0.4, 0.8};
constexpr int kMatricesPerDraw = 1 + static_cast<int>(std::size(kSigmas));
constexpr int kRoundDraws = 1;   // draws in one round of a timed pass
constexpr int kCheckDraws = 4;   // draws the audited check pass repeats
constexpr int kTraceDraws = 20;  // draws in each pass of a traced run
// Thousands of matrices a run leave >= 10 samples past p99.
constexpr double kTailPct = 99.0;
constexpr std::uint64_t kWarmupSeed = 0x5eedULL;
// compute_impact_matrix skips the outage of an edge idle at the base
// optimum (its impact column is zero); the layer probe does the same.
constexpr double kIdleFlow = 1e-12;

/// What the output check needs from one impact matrix.
struct MatrixRecord {
  double base_welfare = 0.0;
  std::vector<double> outage_welfare;  // welfare with each asset out
  double anticipated = 0.0;            // the SA's return on its view
  double realized = 0.0;               // the plan's return on the truth
  bool operator==(const MatrixRecord&) const = default;
};

struct Draw {
  std::vector<MatrixRecord> matrices;
  std::vector<double> latency_ms;
  std::vector<std::string> errors;  // one per failed unit
};

/// Properties that hold whichever optimal basis the solver reached.
void check_matrix(const cps::ImpactResult& im, const std::string& label,
                  std::vector<std::string>* errors) {
  const double tol = 1e-6 * (1.0 + std::fabs(im.base_welfare));
  for (int t = 0; t < im.matrix.num_targets(); ++t) {
    const double system = im.matrix.system_impact(t);
    double actors = 0.0;
    for (int a = 0; a < im.matrix.num_actors(); ++a) {
      actors += im.matrix.at(a, t);
    }
    const std::string where = label + ", asset " + std::to_string(t);
    if (std::fabs(actors - system) > tol) {
      errors->push_back(where + ": actor impacts sum to " +
                        std::to_string(actors) + ", system impact is " +
                        std::to_string(system));
    }
    if (system > tol) {
      errors->push_back(where + ": the outage raises welfare by " +
                        std::to_string(system));
    }
  }
}

/// Re-issues, directly, the flow and lp calls compute_impact_matrix makes
/// for one matrix -- the same network, single-asset outages and warm bases
/// -- each in its own span, so that flow and lp are timed apart from cps.
/// Runs outside the unit's timed span.
void probe_layers(const flow::Network& net, const cps::Ownership& own,
                  const cps::ImpactOptions& options, const lp::Basis& warm,
                  bool is_view, std::int64_t unit, SpanRecorder* spans,
                  std::int64_t* lp_pivots) {
  lp::SimplexOptions simplex = options.allocation.welfare.simplex;
  simplex.warm_start = warm;
  if (is_view) {
    flow::SocialWelfareOptions welfare;
    welfare.simplex = simplex;
    in_span(spans, "flow.view", unit,
            [&] { return flow::solve_social_welfare(net, welfare); });
    const lp::Problem view_lp = flow::build_social_welfare_lp(net);
    *lp_pivots += in_span(spans, "lp.view", unit, [&] {
                    return lp::solve_lp(view_lp, simplex);
                  }).iterations;
  }
  flow::SocialWelfareModel model;
  flow::AllocationOptions alloc = options.allocation;
  alloc.warm_start = warm;
  alloc.model = &model;
  const flow::AllocationResult base = in_span(spans, "flow.base", unit, [&] {
    return flow::allocate_profits(net, own.owners(), own.num_actors(), alloc);
  });
  if (!base.optimal()) return;
  alloc.warm_start = base.basis;
  simplex.warm_start = base.basis;
  flow::Network scratch = net;
  for (int t = 0; t < net.num_edges(); ++t) {
    if (base.flow[static_cast<std::size_t>(t)] <= kIdleFlow) continue;
    const flow::Edge saved = scratch.edge(t);
    cps::apply_attack(scratch, {t, cps::AttackType::kOutage, 1.0});
    in_span(spans, "flow.outage", unit, [&] {
      return flow::allocate_profits(scratch, own.owners(), own.num_actors(),
                                    alloc);
    });
    // allocate_profits left `model` holding this outage's LP.
    *lp_pivots += in_span(spans, "lp.outage", unit, [&] {
                    return lp::solve_lp(model.problem(), simplex);
                  }).iterations;
    scratch.set_capacity(t, saved.capacity);
    scratch.set_cost(t, saved.cost);
    scratch.set_loss(t, saved.loss);
  }
}

class Chain {
 public:
  Chain(const flow::Network& net, std::uint64_t seed, bool force_fail)
      : net_(net), draws_(seed) {
    if (force_fail) {
      impact_.allocation.welfare.simplex.time_limit_ms = kForcedTimeLimitMs;
    }
    adversary_.max_targets = kMaxTargets;
  }

  /// Runs draw d: the truth matrix and one matrix per noise level, each a
  /// timed unit. With a recorder, every layer call is spanned and each
  /// matrix is followed by the layer probe; with `check`, each matrix's
  /// invariants are verified into it.
  Draw run(int d, SpanRecorder* spans, std::int64_t* lp_pivots,
           std::vector<std::string>* check) const {
    Draw out;
    Rng rng = draws_.derive_stream(static_cast<std::uint64_t>(d));
    const cps::Ownership own =
        cps::Ownership::random(net_.num_edges(), kActors, rng);
    const core::StrategicAdversary sa(adversary_);
    cps::ImpactOptions impact = impact_;
    std::optional<cps::ImpactMatrix> truth;
    for (int k = 0; k < kMatricesPerDraw; ++k) {
      const std::int64_t unit =
          static_cast<std::int64_t>(d) * kMatricesPerDraw + k;
      const auto label = [&] {
        return "draw " + std::to_string(d) + ", matrix " + std::to_string(k);
      };
      const bool is_view = k > 0;
      const lp::Basis warm =
          spans != nullptr ? impact.warm_start : lp::Basis{};
      std::optional<flow::Network> view;
      MatrixRecord rec;
      std::string error;
      const auto t0 = Clock::now();
      {
        const SpanScope unit_span(spans, "unit", unit);
        if (is_view) {
          cps::NoiseSpec noise;
          noise.sigma = kSigmas[k - 1];
          view = in_span(spans, "cps.perturb", unit, [&] {
            return cps::perturb_knowledge(net_, noise, rng);
          });
        }
        const flow::Network& subject = is_view ? *view : net_;
        StatusOr<cps::ImpactResult> im =
            in_span(spans, "cps.impact", unit, [&] {
              return cps::compute_impact_matrix(subject, own, impact);
            });
        if (!im.is_ok()) {
          error = im.status().to_string();
        } else if (im->failed_targets > 0) {
          error = std::to_string(im->failed_targets) + " outages not solved";
        } else {
          if (check != nullptr) check_matrix(*im, label(), check);
          rec.base_welfare = im->base_welfare;
          for (int t = 0; t < im->matrix.num_targets(); ++t) {
            rec.outage_welfare.push_back(im->base_welfare +
                                         im->matrix.system_impact(t));
          }
          impact.warm_start = im->base_basis;
          if (!is_view) {
            truth = std::move(im->matrix);
          } else {
            const core::AttackPlan plan = in_span(
                spans, "core.plan", unit, [&] { return sa.plan(im->matrix); });
            if (!truth) {
              error = "no truth matrix to realize the plan on";
            } else if (!plan.optimal()) {
              error = "adversary plan " +
                      std::string(lp::to_string(plan.status));
            } else {
              rec.anticipated = plan.anticipated_return;
              rec.realized = in_span(spans, "core.realized", unit, [&] {
                return core::realized_return(*truth, plan, adversary_);
              });
            }
          }
        }
      }
      out.latency_ms.push_back(ms_since(t0));
      if (!error.empty()) out.errors.push_back(label() + ": " + error);
      out.matrices.push_back(std::move(rec));
      if (spans != nullptr) {
        probe_layers(is_view ? *view : net_, own, impact_, warm, is_view,
                     unit, spans, lp_pivots);
      }
    }
    return out;
  }

 private:
  const flow::Network& net_;
  Rng draws_;
  cps::ImpactOptions impact_;
  core::AdversaryConfig adversary_;
};

/// Traced run: untraced and traced passes over the first kTraceDraws draws
/// alternate until the run time is used up; the counts come from the first
/// untraced pass.
std::vector<Draw> trace_draws(const Chain& chain, const RunConfig& cfg,
                              RunResult* out) {
  std::vector<Draw> first;
  double untraced_ms = 0.0;
  std::int64_t lp_pivots = 0;
  const auto t0 = Clock::now();
  do {
    std::vector<Draw> draws;
    draws.reserve(2 * kTraceDraws);
    const CounterSnapshot before;
    for (int d = 0; d < kTraceDraws; ++d) {
      draws.push_back(chain.run(d, nullptr, nullptr, nullptr));
    }
    const CounterSnapshot after;
    for (const Draw& draw : draws) {
      for (const double ms : draw.latency_ms) untraced_ms += ms;
    }
    if (first.empty()) {
      add_per_layer_counts(before, after, kTraceDraws * kMatricesPerDraw,
                           out);
      first.assign(draws.begin(), draws.begin() + kCheckDraws);
    }
    for (int d = 0; d < kTraceDraws; ++d) {
      draws.push_back(chain.run(d, &out->spans, &lp_pivots, nullptr));
    }
    for (const Draw& draw : draws) {
      out->attempted += kMatricesPerDraw;
      out->failed += static_cast<std::int64_t>(draw.errors.size());
    }
  } while (seconds_between(t0, Clock::now()) < cfg.seconds);

  const SpanRecorder& sp = out->spans;
  auto& m = out->metrics;
  m["core.plan_us"].value = sp.mean_us("core.plan");
  m["cps.perturb_us"].value = sp.mean_us("cps.perturb");
  // compute_impact_matrix minus the flow calls it makes (base + outages).
  m["cps.self_us"].value =
      ratio(sp.total_us("cps.impact") - sp.total_us("flow.base") -
                sp.total_us("flow.outage"),
            static_cast<double>(sp.count("cps.impact")));
  m["flow.outage_us"].value = sp.mean_us("flow.outage");
  m["flow.view_us"].value = sp.mean_us("flow.view");
  m["flow.self_us"].value =
      sp.mean_us("flow.outage") - sp.mean_us("lp.outage");
  m["lp.outage_us"].value = sp.mean_us("lp.outage");
  m["lp.view_us"].value = sp.mean_us("lp.view");
  m["lp.us_per_pivot"].value =
      ratio(sp.total_us("lp.view") + sp.total_us("lp.outage"),
            static_cast<double>(lp_pivots));
  m["obs.trace_overhead_frac"].value =
      ratio(sp.total_us("unit"), untraced_ms * 1e3) - 1.0;
  return first;
}

/// Output check: the first draws again with the audit hook armed. Every
/// solve must certify, every matrix must pass check_matrix and repeat the
/// measured pass exactly; run.py compares the welfare values with stored
/// references.
void check(const Chain& chain, const std::vector<Draw>& measured,
           RunResult* out) {
  const AuditedPass audit;
  std::vector<double>& welfare = out->check_values["welfare"];
  for (int d = 0; d < kCheckDraws; ++d) {
    const Draw again = chain.run(d, nullptr, nullptr, &out->check_errors);
    out->check_errors.insert(out->check_errors.end(), again.errors.begin(),
                             again.errors.end());
    const auto ds = static_cast<std::size_t>(d);
    if (ds >= measured.size() || again.matrices != measured[ds].matrices) {
      out->check_errors.push_back("draw " + std::to_string(d) +
                                  " differs from the measured pass");
    }
    for (const MatrixRecord& rec : again.matrices) {
      welfare.push_back(rec.base_welfare);
      welfare.insert(welfare.end(), rec.outage_welfare.begin(),
                     rec.outage_welfare.end());
    }
  }
  audit.finish(out);
}

}  // namespace

RunResult run_impact_chain(const RunConfig& cfg) {
  RunResult out;
  std::vector<double> setup_s;
  sim::WesternUsModel model;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    model = sim::build_western_us();
    // One draw on fixed inputs sizes the solver workspace.
    Chain(model.network, kWarmupSeed, false).run(0, nullptr, nullptr, nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const Chain chain(model.network, cfg.seed, cfg.force_fail);
  std::vector<Draw> first;  // the draws the check pass repeats
  if (cfg.trace) {
    first = trace_draws(chain, cfg, &out);
  } else {
    // A round is kRoundDraws fresh draws. One-draw rounds are short enough
    // that the occasional slow stretch of the host lands in few of them.
    const TimedPass pass =
        run_rounds(cfg.seconds, kCheckDraws / kRoundDraws, [&](int r) {
      Round round;
      for (int i = 0; i < kRoundDraws; ++i) {
        const int d = r * kRoundDraws + i;
        Draw draw = chain.run(d, nullptr, nullptr, nullptr);
        round.latency_ms.insert(round.latency_ms.end(),
                                draw.latency_ms.begin(),
                                draw.latency_ms.end());
        round.units += kMatricesPerDraw;
        round.failed += static_cast<std::int64_t>(draw.errors.size());
        if (d < kCheckDraws) first.push_back(std::move(draw));
      }
      return round;
    });
    add_end_to_end(pass, kTailPct, setup_s, &out);
  }
  check(chain, first, &out);
  return out;
}

}  // namespace perfbench
