#include "gridsec/cps/impact.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::cps {

ImpactMatrix::ImpactMatrix(int num_actors, int num_targets)
    : num_actors_(num_actors),
      num_targets_(num_targets),
      values_(static_cast<std::size_t>(num_actors) *
                  static_cast<std::size_t>(num_targets),
              0.0),
      system_impact_(static_cast<std::size_t>(num_targets), 0.0) {
  GRIDSEC_ASSERT(num_actors > 0 && num_targets >= 0);
}

double ImpactMatrix::total_gain(int target) const {
  double gain = 0.0;
  for (int a = 0; a < num_actors_; ++a) {
    gain += std::max(at(a, target), 0.0);
  }
  return gain;
}

double ImpactMatrix::total_loss(int target) const {
  double loss = 0.0;
  for (int a = 0; a < num_actors_; ++a) {
    loss += std::min(at(a, target), 0.0);
  }
  return loss;
}

double ImpactMatrix::aggregate_gain() const {
  double gain = 0.0;
  for (int t = 0; t < num_targets_; ++t) gain += total_gain(t);
  return gain;
}

double ImpactMatrix::aggregate_loss() const {
  double loss = 0.0;
  for (int t = 0; t < num_targets_; ++t) loss += total_loss(t);
  return loss;
}

StatusOr<ImpactResult> compute_impact_matrix(const flow::Network& net,
                                             const Ownership& ownership,
                                             const ImpactOptions& options) {
  GRIDSEC_TRACE_SPAN("cps.impact.matrix");
  static obs::Counter& c_computes =
      obs::default_registry().counter("cps.impact.matrix_computes");
  // Targets whose attacked re-solve only succeeded because the
  // numerical-recovery ladder engaged: the matrix entry is certified, but
  // a sweep producing many of these is running close to the edge.
  static obs::Counter& c_recovered =
      obs::default_registry().counter("cps.impact.recovered_targets");
  c_computes.add();
  if (ownership.num_assets() != net.num_edges()) {
    return Status::invalid_argument(
        "compute_impact_matrix: ownership size != edge count");
  }
  const int n_actors = ownership.num_actors();
  const int n_targets = net.num_edges();

  flow::AllocationOptions alloc = options.allocation;
  alloc.warm_start = options.warm_start;
  // Every solve in this sweep — the base model and each single-edge attack
  // scenario — shares one topology, so one welfare model serves them all:
  // built once at the base solve, refreshed in place per target.
  flow::SocialWelfareModel welfare_model;
  if (alloc.model == nullptr) alloc.model = &welfare_model;
  flow::AllocationResult base = [&] {
    GRIDSEC_TRACE_SPAN("cps.impact.base_solve");
    return flow::allocate_profits(net, ownership.owners(), n_actors, alloc);
  }();
  if (!base.optimal()) {
    // Preserve the failure class (time limit / numerical / infeasible) so
    // robust sweeps can apply the right retry policy.
    return lp::to_status(base.status,
                         "compute_impact_matrix: base model not solvable");
  }

  ImpactResult out{ImpactMatrix(n_actors, n_targets), base.actor_profit,
                   base.welfare, 0, base.basis};

  // Every attacked scenario differs from the base model only in one
  // edge's data, so its LP re-solve warm-starts from the base basis. It
  // goes in the welfare options once, which allocate_profits passes on
  // without a copy; the solver's workspace then keeps the crash of this
  // basis, its LU and the rows of the model's LP for every target (see
  // lp/workspace.hpp).
  alloc.warm_start = lp::Basis{};
  alloc.welfare.simplex.warm_start = std::move(base.basis);

  const bool capacity_attack = options.attack_type == AttackType::kOutage ||
                               options.attack_type ==
                                   AttackType::kCapacityScale;
  // One scratch network reused across targets: apply the attack, solve,
  // then restore the edge — instead of deep-copying the whole network per
  // target.
  flow::Network scratch = net;
  GRIDSEC_TRACE_SPAN("cps.impact.target_solves");
  for (int t = 0; t < n_targets; ++t) {
    if (options.skip_unused_targets && capacity_attack &&
        base.flow[static_cast<std::size_t>(t)] <= 1e-12) {
      continue;  // zero column: capacity removal on an idle edge is inert
    }
    const flow::Edge saved = scratch.edge(t);
    apply_attack(scratch, {t, options.attack_type, options.attack_magnitude});
    flow::AllocationResult after =
        flow::allocate_profits(scratch, ownership.owners(), n_actors, alloc);
    scratch.set_capacity(t, saved.capacity);
    scratch.set_cost(t, saved.cost);
    scratch.set_loss(t, saved.loss);
    if (!after.optimal()) {
      ++out.failed_targets;
      continue;
    }
    if (after.recovered) c_recovered.add();
    for (int a = 0; a < n_actors; ++a) {
      out.matrix.set(a, t,
                     after.actor_profit[static_cast<std::size_t>(a)] -
                         base.actor_profit[static_cast<std::size_t>(a)]);
    }
    out.matrix.set_system_impact(t, after.welfare - base.welfare);
  }
  return out;
}

void write_impact_csv(std::ostream& os, const ImpactMatrix& im,
                      const flow::Network& net) {
  GRIDSEC_ASSERT(net.num_edges() == im.num_targets());
  os << "target,system";
  for (int a = 0; a < im.num_actors(); ++a) os << ",actor" << a;
  os << '\n';
  for (int t = 0; t < im.num_targets(); ++t) {
    os << net.edge(t).name << ',' << im.system_impact(t);
    for (int a = 0; a < im.num_actors(); ++a) os << ',' << im.at(a, t);
    os << '\n';
  }
}

}  // namespace gridsec::cps
