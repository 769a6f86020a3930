#include "gridsec/flow/allocation.hpp"

#include <algorithm>
#include <cmath>

#include "gridsec/obs/trace.hpp"

namespace gridsec::flow {

std::vector<double> actor_profits(std::span<const double> edge_profit,
                                  std::span<const int> owners,
                                  int num_actors) {
  GRIDSEC_ASSERT(owners.size() == edge_profit.size());
  GRIDSEC_ASSERT(num_actors > 0);
  std::vector<double> profit(static_cast<std::size_t>(num_actors), 0.0);
  for (std::size_t e = 0; e < owners.size(); ++e) {
    const int a = owners[e];
    GRIDSEC_ASSERT_MSG(a >= 0 && a < num_actors, "owner out of range");
    profit[static_cast<std::size_t>(a)] += edge_profit[e];
  }
  return profit;
}

std::vector<double> edge_profits_from_prices(
    const Network& net, std::span<const double> flow,
    std::span<const double> node_price) {
  GRIDSEC_ASSERT(flow.size() == static_cast<std::size_t>(net.num_edges()));
  GRIDSEC_ASSERT(node_price.size() ==
                 static_cast<std::size_t>(net.num_nodes()));
  std::vector<double> profit(flow.size(), 0.0);
  for (int e = 0; e < net.num_edges(); ++e) {
    const Edge& edge = net.edge(e);
    const auto es = static_cast<std::size_t>(e);
    const double f = flow[es];
    if (f <= 0.0) continue;
    const double price_to =
        net.node(edge.to).kind == NodeKind::kHub
            ? node_price[static_cast<std::size_t>(edge.to)]
            : 0.0;
    const double price_from =
        net.node(edge.from).kind == NodeKind::kHub
            ? node_price[static_cast<std::size_t>(edge.from)]
            : 0.0;
    profit[es] =
        price_to * f - price_from * f / (1.0 - edge.loss) - edge.cost * f;
  }
  return profit;
}

StatusOr<std::vector<double>> probe_node_prices(
    const Network& net, const FlowSolution& base, double probe_fraction,
    const SocialWelfareOptions& options) {
  if (!base.optimal()) {
    return Status::invalid_argument("probe_node_prices: base not optimal");
  }
  // Probe size: a fraction of the mean positive flow, floored so the LP
  // actually moves, capped so we stay in the local pricing regime.
  double mean_flow = 0.0;
  int positive = 0;
  for (double f : base.flow) {
    if (f > 1e-9) {
      mean_flow += f;
      ++positive;
    }
  }
  mean_flow = positive ? mean_flow / positive : 1.0;
  const double delta = std::max(1e-6, probe_fraction * mean_flow);

  std::vector<double> price(static_cast<std::size_t>(net.num_nodes()), 0.0);
  for (int n = 0; n < net.num_nodes(); ++n) {
    if (net.node(n).kind != NodeKind::kHub) continue;
    if (net.out_edges(n).empty() && net.in_edges(n).empty()) continue;
    // Free injection of `delta` at hub n: a zero-cost supply edge. The
    // welfare gain per unit is the price of energy at that hub — the
    // paper's "price of the alternative" at that point in the system.
    // The probe LP is the base LP plus one column (the injection edge
    // adds a variable but no hub row), so the base basis warm-starts it:
    // a warm basis may cover a prefix of the columns.
    Network probe = net;
    probe.add_supply("probe.injection", n, delta, 0.0);
    SocialWelfareOptions probe_options = options;
    probe_options.simplex.warm_start = base.basis;
    FlowSolution sol = solve_social_welfare(probe, probe_options);
    if (!sol.optimal()) {
      return Status::internal("probe_node_prices: probe LP failed at hub " +
                              net.node(n).name);
    }
    price[static_cast<std::size_t>(n)] = (sol.welfare - base.welfare) / delta;
  }
  return price;
}

AllocationResult allocate_profits(const Network& net,
                                  std::span<const int> owners,
                                  int num_actors,
                                  const AllocationOptions& options) {
  GRIDSEC_TRACE_SPAN("flow.allocation.profits");
  AllocationResult out;
  // The welfare options are used in place; only a separate warm basis
  // needs a copy to carry it.
  SocialWelfareOptions warm_options;
  const SocialWelfareOptions* welfare_options = &options.welfare;
  if (!options.warm_start.empty()) {
    warm_options = options.welfare;
    warm_options.simplex.warm_start = options.warm_start;
    welfare_options = &warm_options;
  }
  FlowSolution base =
      options.model != nullptr
          ? solve_social_welfare(net, *options.model, *welfare_options)
          : solve_social_welfare(net, *welfare_options);
  out.status = base.status;
  out.recovered = base.recovered;
  if (!base.optimal()) return out;
  out.welfare = base.welfare;

  if (options.kind == AllocatorKind::kLmp) {
    out.basis = std::move(base.basis);
    out.node_price = std::move(base.node_price);
  } else {
    // The probe solves below warm-start from base.basis, so it must stay
    // put; copy rather than move.
    out.basis = base.basis;
    auto probed =
        probe_node_prices(net, base, options.probe_fraction, options.welfare);
    if (!probed.is_ok()) {
      // Preserve the failure class so callers can distinguish a wall-clock
      // or numerical bail-out from plain budget exhaustion.
      switch (probed.status().code()) {
        case ErrorCode::kTimeLimit:
          out.status = lp::SolveStatus::kTimeLimit;
          break;
        case ErrorCode::kNumericalError:
          out.status = lp::SolveStatus::kNumericalError;
          break;
        default:
          out.status = lp::SolveStatus::kIterationLimit;
      }
      return out;
    }
    out.node_price = std::move(probed.value());
  }

  out.edge_profit = edge_profits_from_prices(net, base.flow, out.node_price);
  out.flow = std::move(base.flow);

  if (!owners.empty()) {
    GRIDSEC_ASSERT(owners.size() == static_cast<std::size_t>(net.num_edges()));
    out.actor_profit = actor_profits(out.edge_profit, owners, num_actors);
  }
  return out;
}

}  // namespace gridsec::flow
