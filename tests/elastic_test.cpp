// Tests for elastic (tiered) demand.
#include "gridsec/flow/elastic.hpp"

#include <gtest/gtest.h>

#include "gridsec/flow/social_welfare.hpp"

namespace gridsec::flow {
namespace {

constexpr double kTol = 1e-6;

TEST(ElasticDemand, TiersCreateDemandEdges) {
  Network net;
  const NodeId h = net.add_hub("H");
  net.add_supply("gen", h, 100.0, 10.0);
  const DemandTier tiers[] = {{20.0, 50.0}, {20.0, 30.0}, {20.0, 15.0}};
  auto edges = add_elastic_demand(net, "load", h, tiers);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(net.edge(edges[0]).kind, EdgeKind::kDemand);
  EXPECT_DOUBLE_EQ(net.edge(edges[1]).cost, -30.0);
  EXPECT_EQ(net.edge(edges[2]).name, "load.t2");
}

TEST(ElasticDemand, OnlyProfitableTiersServed) {
  Network net;
  const NodeId h = net.add_hub("H");
  net.add_supply("gen", h, 100.0, 20.0);  // cost 20
  const DemandTier tiers[] = {{30.0, 50.0}, {30.0, 25.0}, {30.0, 10.0}};
  auto edges = add_elastic_demand(net, "load", h, tiers);
  auto sol = solve_social_welfare(net);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.flow[static_cast<std::size_t>(edges[0])], 30.0, kTol);
  EXPECT_NEAR(sol.flow[static_cast<std::size_t>(edges[1])], 30.0, kTol);
  // The 10-price tier is below the 20 production cost: shed.
  EXPECT_NEAR(sol.flow[static_cast<std::size_t>(edges[2])], 0.0, kTol);
  EXPECT_NEAR(sol.welfare, 30.0 * 30.0 + 5.0 * 30.0, kTol);
}

TEST(ElasticDemand, ScarcityShedsCheapTiersFirst) {
  Network net;
  const NodeId h = net.add_hub("H");
  net.add_supply("gen", h, 40.0, 5.0);  // can only cover part of demand
  const DemandTier tiers[] = {{30.0, 50.0}, {30.0, 25.0}};
  auto edges = add_elastic_demand(net, "load", h, tiers);
  auto sol = solve_social_welfare(net);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.flow[static_cast<std::size_t>(edges[0])], 30.0, kTol);
  EXPECT_NEAR(sol.flow[static_cast<std::size_t>(edges[1])], 10.0, kTol);
}

TEST(LinearDemandCurve, TiersDescendAndCoverQuantity) {
  auto tiers = linear_demand_curve(100.0, 60.0, 4);
  ASSERT_EQ(tiers.size(), 4u);
  double total = 0.0;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    total += tiers[i].quantity;
    if (i > 0) {
      EXPECT_LT(tiers[i].price, tiers[i - 1].price);
    }
  }
  EXPECT_NEAR(total, 60.0, kTol);
  EXPECT_NEAR(tiers[0].price, 87.5, kTol);   // midpoint of [100, 75]
  EXPECT_NEAR(tiers[3].price, 12.5, kTol);
}

TEST(ElasticDemand, SoftensAttackImpact) {
  // Same served quantity and scarcity; the elastic consumer loses less
  // welfare from a supply outage because it sheds its lowest-value usage
  // first, while the fixed-price consumer values every megawatt at retail.
  const auto welfare_drop = [](bool elastic) {
    Network net;
    const NodeId h = net.add_hub("H");
    const EdgeId main_gen = net.add_supply("gen", h, 60.0, 10.0);
    net.add_supply("backup", h, 30.0, 10.0);
    if (elastic) {
      auto tiers = linear_demand_curve(100.0, 60.0, 6);
      add_elastic_demand(net, "load", h, tiers);
    } else {
      net.add_demand("load", h, 60.0, 50.0);  // flat willingness to pay
    }
    auto base = solve_social_welfare(net);
    EXPECT_TRUE(base.optimal());
    Network hit = net;
    hit.set_capacity(main_gen, 0.0);
    auto after = solve_social_welfare(hit);
    EXPECT_TRUE(after.optimal());
    return base.welfare - after.welfare;
  };
  const double fixed_drop = welfare_drop(false);
  const double elastic_drop = welfare_drop(true);
  EXPECT_GT(fixed_drop, 0.0);
  EXPECT_GT(elastic_drop, 0.0);
  EXPECT_LT(elastic_drop, fixed_drop);
}

}  // namespace
}  // namespace gridsec::flow
