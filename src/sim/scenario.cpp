#include "gridsec/sim/scenario.hpp"

#include <string>

namespace gridsec::sim {

flow::Network make_chain(int segments, double supply_cost, double price,
                         double capacity, double segment_cost,
                         double segment_loss) {
  GRIDSEC_ASSERT(segments >= 0);
  flow::Network net;
  std::vector<flow::NodeId> hubs;
  for (int i = 0; i <= segments; ++i) {
    hubs.push_back(net.add_hub("hub" + std::to_string(i)));
  }
  net.add_supply("gen", hubs.front(), capacity, supply_cost);
  for (int i = 0; i < segments; ++i) {
    net.add_edge("seg" + std::to_string(i), flow::EdgeKind::kTransmission,
                 hubs[static_cast<std::size_t>(i)],
                 hubs[static_cast<std::size_t>(i + 1)], capacity,
                 segment_cost, segment_loss);
  }
  net.add_demand("load", hubs.back(), capacity, price);
  return net;
}

flow::Network make_duopoly(double cheap_capacity, double cheap_cost,
                           double dear_capacity, double dear_cost,
                           double demand, double price) {
  flow::Network net;
  const flow::NodeId h = net.add_hub("H");
  net.add_supply("cheap", h, cheap_capacity, cheap_cost);
  net.add_supply("dear", h, dear_capacity, dear_cost);
  net.add_demand("load", h, demand, price);
  return net;
}

flow::Network make_random_grid(const RandomGridOptions& options, Rng& rng) {
  GRIDSEC_ASSERT(options.hubs >= 2);
  flow::Network net;
  std::vector<flow::NodeId> hubs;
  for (int i = 0; i < options.hubs; ++i) {
    hubs.push_back(net.add_hub(std::string("h").append(std::to_string(i))));
  }
  const auto cap = [&] {
    return rng.uniform(options.capacity_min, options.capacity_max);
  };
  // Generators and consumers. Guarantee at least one of each so the
  // network is economically non-trivial.
  bool any_supply = false, any_demand = false;
  for (int i = 0; i < options.hubs; ++i) {
    if (rng.bernoulli(options.supply_density) ||
        (!any_supply && i == options.hubs - 1)) {
      net.add_supply(
          "gen" + std::to_string(i), hubs[static_cast<std::size_t>(i)], cap(),
          rng.uniform(options.supply_cost_min, options.supply_cost_max));
      any_supply = true;
    }
    if (rng.bernoulli(options.demand_density) ||
        (!any_demand && i == options.hubs - 1)) {
      // Demand capacity kept below capacity_min so validate() holds: every
      // hub has at least its inbound ring edge, whose capacity is at least
      // capacity_min.
      any_demand = true;
      net.add_demand("load" + std::to_string(i),
                     hubs[static_cast<std::size_t>(i)],
                     rng.uniform(0.5 * options.capacity_min,
                                 options.capacity_min),
                     rng.uniform(options.price_min, options.price_max));
    }
  }
  // Ring for connectivity, then random chords.
  for (int i = 0; i < options.hubs; ++i) {
    const int j = (i + 1) % options.hubs;
    net.add_edge("ring" + std::to_string(i), flow::EdgeKind::kTransmission,
                 hubs[static_cast<std::size_t>(i)],
                 hubs[static_cast<std::size_t>(j)], cap(),
                 rng.uniform(0.0, 3.0),
                 rng.uniform(0.0, options.line_loss_max));
  }
  for (int i = 0; i < options.hubs; ++i) {
    for (int j = 0; j < options.hubs; ++j) {
      if (i == j || j == (i + 1) % options.hubs) continue;
      if (!rng.bernoulli(options.extra_edge_prob)) continue;
      net.add_edge("chord" + std::to_string(i) + "_" + std::to_string(j),
                   flow::EdgeKind::kTransmission,
                   hubs[static_cast<std::size_t>(i)],
                   hubs[static_cast<std::size_t>(j)], cap(),
                   rng.uniform(0.0, 3.0),
                   rng.uniform(0.0, options.line_loss_max));
    }
  }
  return net;
}

}  // namespace gridsec::sim
