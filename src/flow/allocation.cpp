#include "gridsec/flow/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "gridsec/obs/trace.hpp"

namespace gridsec::flow {

namespace {

void reset(AllocationResult& out) {
  out.status = AllocationResult{}.status;
  out.welfare = 0.0;
  out.flow.clear();
  out.node_price.clear();
  out.edge_profit.clear();
  out.actor_profit.clear();
  out.basis.variables.clear();
  out.basis.rows.clear();
  out.recovered = false;
}

}  // namespace

void actor_profits(std::span<const double> edge_profit,
                   std::span<const int> owners, int num_actors,
                   std::vector<double>& out) {
  GRIDSEC_ASSERT(owners.size() == edge_profit.size());
  GRIDSEC_ASSERT(num_actors > 0);
  out.assign(static_cast<std::size_t>(num_actors), 0.0);
  for (std::size_t e = 0; e < owners.size(); ++e) {
    const int a = owners[e];
    GRIDSEC_ASSERT_MSG(a >= 0 && a < num_actors, "owner out of range");
    out[static_cast<std::size_t>(a)] += edge_profit[e];
  }
}

std::vector<double> actor_profits(std::span<const double> edge_profit,
                                  std::span<const int> owners,
                                  int num_actors) {
  std::vector<double> profit;
  actor_profits(edge_profit, owners, num_actors, profit);
  return profit;
}

void edge_profits_from_prices(const Network& net, const WelfareLayout& layout,
                              std::span<const double> flow,
                              std::span<const double> node_price,
                              std::vector<double>& out) {
  GRIDSEC_ASSERT(flow.size() == static_cast<std::size_t>(net.num_edges()));
  GRIDSEC_ASSERT(node_price.size() ==
                 static_cast<std::size_t>(net.num_nodes()));
  GRIDSEC_ASSERT(layout.from_hub.size() == flow.size());
  out.assign(flow.size(), 0.0);
  const auto price_at = [&node_price](NodeId hub) {
    return hub >= 0 ? node_price[static_cast<std::size_t>(hub)] : 0.0;
  };
  for (int e = 0; e < net.num_edges(); ++e) {
    const Edge& edge = net.edge(e);
    const auto es = static_cast<std::size_t>(e);
    const double f = flow[es];
    if (f <= 0.0) continue;
    const double price_to = price_at(layout.to_hub[es]);
    const double price_from = price_at(layout.from_hub[es]);
    out[es] =
        price_to * f - price_from * f / (1.0 - edge.loss) - edge.cost * f;
  }
}

std::vector<double> edge_profits_from_prices(
    const Network& net, std::span<const double> flow,
    std::span<const double> node_price) {
  WelfareLayout layout;
  layout.build(net);
  std::vector<double> profit;
  edge_profits_from_prices(net, layout, flow, node_price, profit);
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

  // The probe LP is the base LP plus one column (the injection edge adds
  // a variable but no hub row), so the base basis warm-starts it: a warm
  // basis may cover a prefix of the columns.
  SocialWelfareOptions probe_options = options;
  probe_options.simplex.warm_start = base.basis;
  FlowSolution sol;
  std::vector<double> price(static_cast<std::size_t>(net.num_nodes()), 0.0);
  for (int n = 0; n < net.num_nodes(); ++n) {
    if (net.node(n).kind != NodeKind::kHub) continue;
    if (net.out_edges(n).empty() && net.in_edges(n).empty()) continue;
    // Free injection of `delta` at hub n: a zero-cost supply edge. The
    // welfare gain per unit is the price of energy at that hub — the
    // paper's "price of the alternative" at that point in the system.
    Network probe = net;
    probe.add_supply("probe.injection", n, delta, 0.0);
    solve_social_welfare(probe, probe_options, sol);
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
  AllocationResult out;
  allocate_profits(net, owners, num_actors, options, out);
  return out;
}

void allocate_profits(const Network& net, std::span<const int> owners,
                      int num_actors, const AllocationOptions& options,
                      AllocationResult& out) {
  GRIDSEC_TRACE_SPAN("flow.allocation.profits");
  reset(out);
  // The welfare options are used in place; only a separate warm basis
  // needs a copy to carry it.
  SocialWelfareOptions warm_options;
  const SocialWelfareOptions* welfare_options = &options.welfare;
  if (!options.warm_start.empty()) {
    warm_options = options.welfare;
    warm_options.simplex.warm_start = options.warm_start;
    welfare_options = &warm_options;
  }
  // Without a caller's model, one made for the call: it builds the LP a
  // one-shot solve would, and the layout the edge profits read.
  std::optional<SocialWelfareModel> own_model;
  SocialWelfareModel& model =
      options.model != nullptr ? *options.model : own_model.emplace();
  FlowSolution& base = model.scratch().flow;
  solve_social_welfare(net, model, *welfare_options, base);
  out.status = base.status;
  out.recovered = base.recovered;
  if (!base.optimal()) return;
  out.welfare = base.welfare;

  if (options.kind == AllocatorKind::kLmp) {
    out.basis.variables.swap(base.basis.variables);
    out.basis.rows.swap(base.basis.rows);
    out.node_price.swap(base.node_price);
  } else {
    // The probe solves below warm-start from base.basis, so it must stay
    // put; copy rather than swap.
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
      return;
    }
    out.node_price = std::move(probed.value());
  }

  edge_profits_from_prices(net, model.layout(), base.flow, out.node_price,
                           out.edge_profit);
  out.flow.swap(base.flow);

  if (!owners.empty()) {
    GRIDSEC_ASSERT(owners.size() == static_cast<std::size_t>(net.num_edges()));
    actor_profits(out.edge_profit, owners, num_actors, out.actor_profit);
  }
}

}  // namespace gridsec::flow
