// defense_game: Experiment 3 (Fig 5) as sim::experiment_defense runs it at
// paper defaults -- individual defense, 5 Pa samples, 20 game rounds for
// each of 2/4/6/12 actors x 6 defender noise levels -- on a 2-worker pool.
// Two workers, not four: on a 4-core host the pool idled 2-2.5% at each
// point's barrier with 2 workers and 7% with 4.
//
// The unit is one game round. experiment_defense is called once per point
// so that each point can be timed: the latency metrics are per point (20
// rounds behind one barrier), the finest grain the entry point exposes.
// Each sweep of a run plays fresh games drawn from its own seeds.
#include <memory>
#include <string>
#include <vector>

#include "gridsec/sim/experiments.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/rng.hpp"
#include "gridsec/util/thread_pool.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace gridsec;

constexpr std::size_t kWorkers = 2;
constexpr int kTrials = 20;
// 24 points a sweep and at least 5 sweeps a run leave >= 10 points past p90.
constexpr double kTailPct = 90.0;
// Set-up plays a few warm-up rounds on fixed inputs, so that each worker's
// solver scratch exists before anything is timed or counted.
constexpr int kWarmupTrials = 4;
constexpr std::uint64_t kWarmupSeed = 0x5eedULL;

struct Point {
  int actors = 0;
  double sigma = 0.0;
};

struct PointResult {
  double effectiveness = 0.0;
  double se = 0.0;
  int failed = 0;
  double ms = 0.0;
};

struct Setup {
  sim::WesternUsModel model;
  std::unique_ptr<ThreadPool> pool;
};

std::vector<Point> paper_grid() {
  const sim::DefenseExperimentConfig paper;
  std::vector<Point> grid;
  for (const int actors : paper.actor_counts) {
    for (const double sigma : paper.defender_sigmas) {
      grid.push_back({actors, sigma});
    }
  }
  return grid;
}

std::uint64_t point_seed(std::uint64_t seed, int sweep, std::size_t point) {
  SplitMix64 mix(
      seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(sweep + 1)) ^
      (0xc2b2ae3d27d4eb4fULL * static_cast<std::uint64_t>(point + 1)));
  return mix.next();
}

PointResult run_point(const Setup& s, const Point& p, std::uint64_t seed,
                      int trials, bool force_fail) {
  sim::DefenseExperimentConfig config;
  config.actor_counts = {p.actors};
  config.defender_sigmas = {p.sigma};
  sim::ExperimentOptions options;
  options.trials = trials;
  options.seed = seed;
  options.pool = s.pool.get();
  if (force_fail) {
    options.impact.allocation.welfare.simplex.time_limit_ms =
        kForcedTimeLimitMs;
  }
  const auto t0 = Clock::now();
  const std::vector<sim::DefensePoint> points =
      sim::experiment_defense(s.model.network, config, options);
  const double ms = ms_since(t0);
  const sim::DefensePoint& r = points.front();
  return {r.effectiveness, r.se, r.failed_trials, ms};
}

/// One sweep of the grid; with a recorder, each point is a "unit" span
/// around a "sim.experiment_defense" span.
std::vector<PointResult> run_sweep(const Setup& s,
                                   const std::vector<Point>& grid,
                                   const RunConfig& cfg, int sweep,
                                   SpanRecorder* spans) {
  std::vector<PointResult> out;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto unit = static_cast<std::int64_t>(i);
    const SpanScope unit_span(spans, "unit", unit);
    out.push_back(in_span(spans, "sim.experiment_defense", unit, [&] {
      return run_point(s, grid[i], point_seed(cfg.seed, sweep, i), kTrials,
                       cfg.force_fail);
    }));
  }
  return out;
}

Setup set_up(const std::vector<Point>& grid, std::vector<double>* setup_s) {
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s.pool.reset();  // joins the previous repeat's workers before timing
    const auto t0 = Clock::now();
    s.model = sim::build_western_us();
    s.pool = std::make_unique<ThreadPool>(kWorkers);
    run_point(s, grid.front(), kWarmupSeed, kWarmupTrials, false);
    setup_s->push_back(seconds_between(t0, Clock::now()));
  }
  return s;
}

/// Traced run: untraced and traced passes over sweep 0 alternate until the
/// run time is used up; the counts come from the first untraced pass.
/// Inside experiment_defense only counters can be read -- timing there
/// needs spans in the program itself.
std::vector<PointResult> trace_sweeps(const Setup& s,
                                      const std::vector<Point>& grid,
                                      const RunConfig& cfg, RunResult* out) {
  std::vector<PointResult> first;
  const auto games = static_cast<std::int64_t>(grid.size()) * kTrials;
  double untraced_ms = 0.0;
  double busy_ns = 0.0;
  double idle_ns = 0.0;
  const auto t0 = Clock::now();
  do {
    const std::vector<ThreadPool::WorkerStats> stats0 =
        s.pool->worker_stats();
    const CounterSnapshot before;
    std::vector<PointResult> points = run_sweep(s, grid, cfg, 0, nullptr);
    s.pool->wait_idle();  // workers flush allocation counts after each task
    const CounterSnapshot after;
    const std::vector<ThreadPool::WorkerStats> stats1 =
        s.pool->worker_stats();
    for (std::size_t w = 0; w < stats1.size(); ++w) {
      busy_ns += static_cast<double>(stats1[w].busy_ns - stats0[w].busy_ns);
      idle_ns += static_cast<double>(stats1[w].idle_ns - stats0[w].idle_ns);
    }
    for (const PointResult& p : points) {
      untraced_ms += p.ms;
      out->failed += p.failed;
    }
    if (first.empty()) {
      add_per_layer_counts(before, after, static_cast<double>(games), out);
      first = std::move(points);
    }
    for (const PointResult& p : run_sweep(s, grid, cfg, 0, &out->spans)) {
      out->failed += p.failed;
    }
    out->attempted += 2 * games;
  } while (seconds_between(t0, Clock::now()) < cfg.seconds);
  out->metrics["sim.pool_idle_frac"].value = ratio(idle_ns, busy_ns + idle_ns);
  out->metrics["obs.trace_overhead_frac"].value =
      ratio(out->spans.total_us("unit"), untraced_ms * 1e3) - 1.0;
  return first;
}

/// Output check: sweep 0 again with the audit hook armed. Every solve must
/// certify, no game may fail, and every point must repeat the measured
/// pass exactly; run.py compares the Fig 5 means with stored references.
void check(const Setup& s, const std::vector<Point>& grid,
           const RunConfig& cfg, const std::vector<PointResult>& measured,
           RunResult* out) {
  const AuditedPass audit;
  const std::vector<PointResult> again = run_sweep(s, grid, cfg, 0, nullptr);
  audit.finish(out);
  std::vector<double>& mean = out->check_values["fig5_effectiveness"];
  std::vector<double>& se = out->check_values["fig5_effectiveness_se"];
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string point = std::to_string(grid[i].actors) +
                              " actors, sigma " +
                              std::to_string(grid[i].sigma);
    if (again[i].failed > 0) {
      out->check_errors.push_back(point + ": " +
                                  std::to_string(again[i].failed) +
                                  " games failed");
    }
    if (again[i].effectiveness != measured[i].effectiveness ||
        again[i].se != measured[i].se) {
      out->check_errors.push_back(point + ": differs from the measured pass");
    }
    mean.push_back(again[i].effectiveness);
    se.push_back(again[i].se);
  }
}

}  // namespace

RunResult run_defense_game(const RunConfig& cfg) {
  RunResult out;
  const std::vector<Point> grid = paper_grid();
  std::vector<double> setup_s;
  const Setup s = set_up(grid, &setup_s);
  std::vector<PointResult> first;  // sweep 0, which the check pass repeats
  if (cfg.trace) {
    first = trace_sweeps(s, grid, cfg, &out);
  } else {
    // A round is one sweep on fresh seeds.
    const TimedPass pass = run_rounds(cfg.seconds, 1, [&](int sweep) {
      std::vector<PointResult> points =
          run_sweep(s, grid, cfg, sweep, nullptr);
      Round round;
      for (const PointResult& p : points) {
        round.latency_ms.push_back(p.ms);
        round.units += kTrials;
        round.failed += p.failed;
      }
      if (sweep == 0) first = std::move(points);
      return round;
    });
    add_end_to_end(pass, kTailPct, setup_s, &out);
  }
  check(s, grid, cfg, first, &out);
  return out;
}

}  // namespace perfbench
