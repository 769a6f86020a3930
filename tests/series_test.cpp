// Tests for the series-competitor profit-sharing negotiation (§II-D2).
#include "gridsec/flow/series.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace gridsec::flow {
namespace {

TEST(SeriesNegotiation, EqualSplitForIdenticalActors) {
  SeriesChain chain;
  chain.supply_cost = 10.0;
  chain.segment_cost = {1.0, 1.0, 1.0};  // three actors in series
  chain.consumer_price = 40.0;
  chain.flow = 50.0;
  auto res = negotiate_series_profits(chain);
  ASSERT_TRUE(res.converged);
  const double margin = 40.0 - 10.0 - 3.0;  // 27
  EXPECT_NEAR(res.chain_margin, margin, 1e-9);
  // The paper's stated outcome: each actor gets roughly 1/N of the profit.
  for (double m : res.markup) EXPECT_NEAR(m, margin / 3.0, margin * 0.01);
  for (double p : res.actor_profit) {
    EXPECT_NEAR(p, margin / 3.0 * 50.0, margin * 50.0 * 0.01);
  }
}

TEST(SeriesNegotiation, TwoActorsHalfEach) {
  SeriesChain chain;
  chain.supply_cost = 0.0;
  chain.segment_cost = {0.0, 0.0};
  chain.consumer_price = 10.0;
  chain.flow = 1.0;
  auto res = negotiate_series_profits(chain);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.markup[0], 5.0, 0.1);
  EXPECT_NEAR(res.markup[1], 5.0, 0.1);
}

TEST(SeriesNegotiation, SingleActorTakesWholeMargin) {
  SeriesChain chain;
  chain.supply_cost = 5.0;
  chain.segment_cost = {2.0};
  chain.consumer_price = 20.0;
  chain.flow = 10.0;
  auto res = negotiate_series_profits(chain);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.markup[0], 13.0, 0.15);
  EXPECT_NEAR(res.actor_profit[0], 130.0, 1.5);
}

TEST(SeriesNegotiation, NegativeMarginYieldsZero) {
  SeriesChain chain;
  chain.supply_cost = 50.0;
  chain.segment_cost = {5.0, 5.0};
  chain.consumer_price = 40.0;  // unprofitable chain
  chain.flow = 10.0;
  auto res = negotiate_series_profits(chain);
  ASSERT_TRUE(res.converged);
  for (double m : res.markup) EXPECT_DOUBLE_EQ(m, 0.0);
}

TEST(SeriesNegotiation, ZeroFlowYieldsZeroProfit) {
  SeriesChain chain;
  chain.supply_cost = 1.0;
  chain.segment_cost = {1.0};
  chain.consumer_price = 10.0;
  chain.flow = 0.0;
  auto res = negotiate_series_profits(chain);
  ASSERT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(res.actor_profit[0], 0.0);
}

TEST(SeriesNegotiation, MarkupsSumToMarginAtConvergence) {
  SeriesChain chain;
  chain.supply_cost = 3.0;
  chain.segment_cost = {0.5, 1.5, 0.25, 0.75};
  chain.consumer_price = 30.0;
  chain.flow = 12.0;
  auto res = negotiate_series_profits(chain);
  ASSERT_TRUE(res.converged);
  const double total = std::accumulate(res.markup.begin(), res.markup.end(),
                                       0.0);
  EXPECT_NEAR(total, res.chain_margin, res.chain_margin * 0.02);
}

TEST(SeriesNegotiation, TighterToleranceGetsCloserToEqualSplit) {
  SeriesChain chain;
  chain.supply_cost = 0.0;
  chain.segment_cost = {0.0, 0.0, 0.0, 0.0, 0.0};
  chain.consumer_price = 100.0;
  chain.flow = 1.0;
  SeriesNegotiationOptions tight;
  tight.tolerance = 1e-8;
  auto res = negotiate_series_profits(chain, tight);
  ASSERT_TRUE(res.converged);
  for (double m : res.markup) EXPECT_NEAR(m, 20.0, 1e-4);
}

TEST(ExtractSeriesChain, SimpleThreeActorChain) {
  Network net;
  const NodeId a = net.add_hub("A");
  const NodeId b = net.add_hub("B");
  const NodeId c = net.add_hub("C");
  net.add_supply("gen", a, 80.0, 10.0);                                // e0
  net.add_edge("ab", EdgeKind::kTransmission, a, b, 60.0, 1.0);        // e1
  net.add_edge("bc", EdgeKind::kTransmission, b, c, 70.0, 2.0);        // e2
  net.add_demand("load", c, 50.0, 40.0);                               // e3
  std::vector<int> owners{0, 1, 2, 2};
  std::vector<int> actors;
  auto chain = extract_series_chain(net, owners, &actors);
  ASSERT_TRUE(chain.is_ok());
  EXPECT_DOUBLE_EQ(chain->supply_cost, 10.0);
  EXPECT_DOUBLE_EQ(chain->consumer_price, 40.0);
  ASSERT_EQ(chain->segment_cost.size(), 2u);  // actor 1 then actor 2
  EXPECT_DOUBLE_EQ(chain->segment_cost[0], 1.0);
  EXPECT_DOUBLE_EQ(chain->segment_cost[1], 2.0);
  EXPECT_DOUBLE_EQ(chain->flow, 50.0);  // demand is the bottleneck
  EXPECT_EQ(actors, (std::vector<int>{1, 2}));
}

TEST(ExtractSeriesChain, MergesConsecutiveSegmentsOfSameActor) {
  Network net;
  const NodeId a = net.add_hub("A");
  const NodeId b = net.add_hub("B");
  const NodeId c = net.add_hub("C");
  net.add_supply("gen", a, 80.0, 5.0);
  net.add_edge("ab", EdgeKind::kTransmission, a, b, 60.0, 1.0);
  net.add_edge("bc", EdgeKind::kTransmission, b, c, 70.0, 2.0);
  net.add_demand("load", c, 50.0, 40.0);
  std::vector<int> owners{0, 3, 3, 1};  // both segments owned by actor 3
  std::vector<int> actors;
  auto chain = extract_series_chain(net, owners, &actors);
  ASSERT_TRUE(chain.is_ok());
  ASSERT_EQ(chain->segment_cost.size(), 1u);
  EXPECT_DOUBLE_EQ(chain->segment_cost[0], 3.0);
  EXPECT_EQ(actors, (std::vector<int>{3}));
}

TEST(ExtractSeriesChain, RejectsBranchingNetwork) {
  Network net;
  const NodeId a = net.add_hub("A");
  const NodeId b = net.add_hub("B");
  const NodeId c = net.add_hub("C");
  net.add_supply("gen", a, 80.0, 5.0);
  net.add_edge("ab", EdgeKind::kTransmission, a, b, 60.0, 1.0);
  net.add_edge("ac", EdgeKind::kTransmission, a, c, 60.0, 1.0);  // branch
  net.add_demand("load", b, 50.0, 40.0);
  std::vector<int> owners(static_cast<std::size_t>(net.num_edges()), 0);
  auto chain = extract_series_chain(net, owners, nullptr);
  EXPECT_FALSE(chain.is_ok());
}

TEST(ExtractSeriesChain, RejectsMultipleSupplies) {
  Network net;
  const NodeId a = net.add_hub("A");
  net.add_supply("g1", a, 10.0, 1.0);
  net.add_supply("g2", a, 10.0, 2.0);
  net.add_demand("load", a, 5.0, 9.0);
  std::vector<int> owners(static_cast<std::size_t>(net.num_edges()), 0);
  auto chain = extract_series_chain(net, owners, nullptr);
  EXPECT_FALSE(chain.is_ok());
}

TEST(ExtractSeriesChain, EndToEndEqualSplitOnNetworkChain) {
  // Full pipeline: network -> chain -> negotiation -> ~1/N shares.
  Network net;
  std::vector<NodeId> hubs;
  for (int i = 0; i < 4; ++i) {
    hubs.push_back(net.add_hub(std::string("h").append(std::to_string(i))));
  }
  net.add_supply("gen", hubs[0], 100.0, 10.0);
  for (int i = 0; i < 3; ++i) {
    net.add_edge("seg" + std::to_string(i), EdgeKind::kTransmission,
                 hubs[static_cast<std::size_t>(i)],
                 hubs[static_cast<std::size_t>(i + 1)], 100.0, 0.0);
  }
  net.add_demand("load", hubs[3], 60.0, 40.0);
  std::vector<int> owners{9, 0, 1, 2, 9};  // three interior actors
  std::vector<int> actors;
  auto chain = extract_series_chain(net, owners, &actors);
  ASSERT_TRUE(chain.is_ok());
  auto res = negotiate_series_profits(*chain);
  ASSERT_TRUE(res.converged);
  const double margin = 30.0;
  for (double m : res.markup) EXPECT_NEAR(m, margin / 3.0, margin * 0.01);
}

}  // namespace
}  // namespace gridsec::flow
