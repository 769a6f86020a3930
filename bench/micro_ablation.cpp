// Ablation benches for the design choices called out in DESIGN.md:
//  * LMP (dual-based) vs perturbation (probe-based) profit allocation;
//  * SA solvers: exact MILP vs exhaustive enumeration vs greedy;
//  * impact-matrix kernel cost as actor count varies.
// Runs on the harness-v2 report layer (--trials = measured reps per case).
#include "bench_common.hpp"
#include "gridsec/core/adversary.hpp"
#include "gridsec/core/partition.hpp"
#include "gridsec/cps/impact.hpp"
#include "gridsec/cps/perturbation.hpp"
#include "gridsec/lp/milp.hpp"
#include "gridsec/sim/western_us.hpp"

namespace {

using namespace gridsec;

// SA solver comparison on a pruned 6-actor instance. Enumeration is capped
// at 3 targets to stay tractable; MILP and greedy use the same cap so the
// comparison is apples-to-apples.
struct SaFixture {
  cps::ImpactMatrix im{1, 1};
  SaFixture() {
    auto m = sim::build_western_us();
    Rng rng(3);
    auto own = cps::Ownership::random(m.network.num_edges(), 6, rng);
    auto res = cps::compute_impact_matrix(m.network, own);
    im = res->matrix;
  }
};

SaFixture& sa_fixture() {
  static SaFixture f;
  return f;
}

core::AdversaryConfig capped_config() {
  core::AdversaryConfig cfg;
  cfg.max_targets = 3;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridsec;
  const auto args = bench::parse_args(argc, argv);
  bench::Harness harness("micro_ablation", args, argc, argv);
  const int reps = args.trials;

  Table t({"case", "median_ms", "mean_ms", "stddev_ms"});
  const auto record = [&](const std::string& name) {
    const auto& wall = harness.report().cases.back().wall;
    t.add_row({name, format_double(wall.median_seconds * 1e3, 3),
               format_double(wall.mean_seconds * 1e3, 3),
               format_double(wall.stddev_seconds * 1e3, 3)});
  };

  {
    auto m = sim::build_western_us();
    for (const auto kind :
         {flow::AllocatorKind::kLmp, flow::AllocatorKind::kPerturbation}) {
      flow::AllocationOptions opt;
      opt.kind = kind;
      const std::string name = kind == flow::AllocatorKind::kLmp
                                   ? "allocator_lmp"
                                   : "allocator_perturbation";
      harness.run_case(
          name,
          [&] { return flow::allocate_profits(m.network, {}, 0, opt).welfare; },
          reps, 1);
      record(name);
    }

    // Every impact call sweeps its own σ = 0.05 view of the network, drawn
    // from the next derived stream of the bench seed before its case runs:
    // the target-sweep memo serves only a sweep it has seen before, so
    // each call times a solved sweep.
    cps::NoiseSpec noise;
    noise.sigma = 0.05;
    const Rng view_parent(args.seed);
    std::uint64_t next_view = 0;
    const int calls = harness.calls(reps, 1);
    const auto draw_views = [&] {
      std::vector<flow::Network> views;
      for (int i = 0; i < calls; ++i) {
        Rng rng = view_parent.derive_stream(next_view++);
        views.push_back(cps::perturb_knowledge(m.network, noise, rng));
      }
      return views;
    };

    for (const int actors : {2, 6, 12}) {
      Rng rng(1);
      auto own = cps::Ownership::random(m.network.num_edges(), actors, rng);
      const std::string name = "impact_matrix/" + std::to_string(actors);
      const std::vector<flow::Network> views = draw_views();
      std::size_t call = 0;
      harness.run_case(
          name,
          [&] {
            return cps::compute_impact_matrix(views[call++], own)
                ->base_welfare;
          },
          reps, 1);
      record(name);
    }

    // Exactness-preserving skip of zero-flow targets in the impact kernel.
    Rng rng(1);
    auto own = cps::Ownership::random(m.network.num_edges(), 6, rng);
    for (const bool skip : {false, true}) {
      cps::ImpactOptions opt;
      opt.skip_unused_targets = skip;
      const std::string name =
          skip ? "impact_skip_unused/on" : "impact_skip_unused/off";
      const std::vector<flow::Network> views = draw_views();
      std::size_t call = 0;
      harness.run_case(
          name,
          [&] {
            return cps::compute_impact_matrix(views[call++], own, opt)
                ->base_welfare;
          },
          reps, 1);
      record(name);
    }
  }

  {
    core::StrategicAdversary sa(capped_config());
    harness.run_case(
        "sa_milp", [&] { return sa.plan(sa_fixture().im).anticipated_return; },
        reps, 1);
    record("sa_milp");
    harness.run_case(
        "sa_enumerate",
        [&] { return sa.plan_enumerate(sa_fixture().im).anticipated_return; },
        reps, 1);
    record("sa_enumerate");
    harness.run_case(
        "sa_greedy",
        [&] { return sa.plan_greedy(sa_fixture().im).anticipated_return; },
        reps, 1);
    record("sa_greedy");
    harness.run_case(
        "sa_milp_formulation",
        [&] { return sa.plan_milp(sa_fixture().im).anticipated_return; },
        reps, 1);
    record("sa_milp_formulation");
    harness.run_case(
        "sa_partitioned",
        [&] {
          return core::plan_partitioned(sa_fixture().im, capped_config())
              .anticipated_return;
        },
        reps, 1);
    record("sa_partitioned");

    // Value of strategic targeting: strategic/random return ratio rides
    // along in the table next to the random baseline's runtime.
    const double strategic = sa.plan(sa_fixture().im).anticipated_return;
    Rng rng(5);
    double random_sum = 0.0;
    int samples = 0;
    harness.run_case(
        "sa_random_baseline",
        [&] {
          const auto plan = core::random_attack_plan(
              sa_fixture().im, capped_config(), rng);
          random_sum += plan.anticipated_return;
          ++samples;
          return plan.anticipated_return;
        },
        reps, 0);
    record("sa_random_baseline");
    if (samples > 0 && random_sum != 0.0) {
      t.add_row({"strategic_over_random",
                 format_double(strategic / (random_sum / samples), 3), "",
                 ""});
    }
  }

  // MILP diving heuristic on/off (knapsack formulation as workload).
  for (const bool diving : {false, true}) {
    lp::BranchAndBoundOptions opts;
    opts.diving_heuristic = diving;
    Rng rng(11);
    lp::Problem p(lp::Objective::kMaximize);
    lp::LinearExpr weights;
    for (int i = 0; i < 30; ++i) {
      weights.add(p.add_binary("b", rng.uniform(1.0, 10.0)),
                  rng.uniform(0.5, 5.0));
    }
    p.add_constraint("w", std::move(weights), lp::Sense::kLessEqual, 25.0);
    const std::string name =
        diving ? "milp_diving/on" : "milp_diving/off";
    harness.run_case(
        name,
        [&] {
          lp::BranchAndBoundSolver solver(opts);
          return solver.solve(p).objective;
        },
        reps, 1);
    record(name);
  }

  bench::emit(t, args, "Ablation micro-benchmarks (harness v2)");
  harness.emit_report();
  return 0;
}
