#include <gtest/gtest.h>

#include <algorithm>

#include "rim/core/assessor.hpp"
#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/graph/udg.hpp"
#include "rim/sim/generators.hpp"
#include "rim/topology/mst_topology.hpp"

namespace rim::core {
namespace {

TEST(Radii, FarthestNeighborDefinesRadius) {
  const geom::PointSet points{{0, 0}, {1, 0}, {0, 2}};
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const auto radii = transmission_radii(g, points);
  EXPECT_DOUBLE_EQ(radii[0], 2.0);  // farthest neighbor is node 2
  EXPECT_DOUBLE_EQ(radii[1], 1.0);
  EXPECT_DOUBLE_EQ(radii[2], 2.0);
}

TEST(Radii, IsolatedNodeHasZeroRadius) {
  const geom::PointSet points{{0, 0}, {5, 5}};
  const graph::Graph g(2);
  const auto radii = transmission_radii(g, points);
  EXPECT_DOUBLE_EQ(radii[0], 0.0);
  EXPECT_DOUBLE_EQ(radii[1], 0.0);
}

TEST(Radii, TotalPowerQuadratic) {
  const std::vector<double> radii{1.0, 2.0, 0.0};
  EXPECT_DOUBLE_EQ(total_power(radii, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(total_power(radii, 4.0), 17.0);
}

/// The paper's Figure 2: node u is covered by its direct neighbor and by a
/// non-neighboring node v whose own link is long enough to reach u.
TEST(Interference, PaperFigure2Example) {
  // u = 0, its neighbor a = 1; v = 2 linked to b = 3 (long link); c = 4
  // linked to b with a short link.
  const geom::PointSet points{
      {0.0, 0.0},   // u
      {0.4, 0.0},   // a
      {1.0, 0.3},   // v
      {2.1, 0.3},   // b
      {2.4, 0.3},   // c
  };
  graph::Graph topo(5);
  topo.add_edge(0, 1);  // u -- a
  topo.add_edge(2, 3);  // v -- b
  topo.add_edge(3, 4);  // b -- c
  const InterferenceSummary s = Assessor{}.assess(topo, points);
  // dist(v,u) ≈ 1.044 <= r_v = 1.1, so v covers u even though it is not a
  // topology neighbor of u.
  EXPECT_EQ(s.per_node[0], 2u) << "I(u): direct neighbor a plus remote v";
}

TEST(Interference, TwoNodesSingleEdge) {
  const geom::PointSet points{{0, 0}, {1, 0}};
  graph::Graph g(2);
  g.add_edge(0, 1);
  const InterferenceSummary s = Assessor{}.assess(g, points);
  EXPECT_EQ(s.per_node[0], 1u);
  EXPECT_EQ(s.per_node[1], 1u);
  EXPECT_EQ(s.max, 1u);
  EXPECT_EQ(s.total, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
}

TEST(Interference, EmptyTopologyHasZeroInterference) {
  const geom::PointSet points{{0, 0}, {0.1, 0}, {0.2, 0}};
  const graph::Graph g(3);
  const InterferenceSummary s = Assessor{}.assess(g, points);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.total, 0u);
}

TEST(Interference, StarTopologyCenterCoversAll) {
  // Center 0 links to 4 leaves at distance 1; every leaf covered by center
  // (and by any leaf whose own disk reaches it).
  const geom::PointSet points{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  graph::Graph g(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  const InterferenceSummary s = Assessor{}.assess(g, points);
  // Center: all 4 leaves have radius 1 = their distance to center.
  EXPECT_EQ(s.per_node[0], 4u);
  // A leaf: covered by center (r=1) and by no other leaf
  // (leaf-leaf distances are sqrt(2) or 2, both > 1).
  EXPECT_EQ(s.per_node[1], 1u);
  EXPECT_EQ(s.max, 4u);
}

TEST(Interference, BoundaryCoverageCounts) {
  // v exactly on the rim of u's disk: covered (closed disk).
  const geom::PointSet points{{0, 0}, {1, 0}, {2, 0}};
  graph::Graph g(3);
  g.add_edge(0, 1);  // r_0 = r_1 = 1
  const InterferenceSummary s = Assessor{}.assess(g, points);
  EXPECT_EQ(s.per_node[2], 1u);  // node 2 is exactly at distance 1 from node 1
}

class StrategyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(StrategyEquivalence, AllStrategiesAgree) {
  const auto [seed, n] = GetParam();
  const auto points = sim::uniform_square(n, 3.0, seed);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  const auto radii2 = transmission_radii_squared(mst, points);
  const auto brute =
      interference_vector_squared(points, radii2, Strategy::kBrute);
  const auto grid = interference_vector_squared(points, radii2, Strategy::kGrid);
  const auto par =
      interference_vector_squared(points, radii2, Strategy::kParallel);
  EXPECT_EQ(brute, grid);
  EXPECT_EQ(brute, par);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StrategyEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 42u),
                       ::testing::Values(std::size_t{10}, std::size_t{100},
                                         std::size_t{500})));

TEST(Interference, StrategiesAgreeOnExponentialSpread) {
  // Wildly non-uniform density stresses the grid evaluator's cell choice.
  geom::PointSet points;
  double x = 0.0;
  for (int i = 0; i < 30; ++i) {
    points.push_back({x, 0.0});
    x = 2.0 * x + 0.001;
  }
  graph::Graph chain(points.size());
  for (NodeId i = 0; i + 1 < points.size(); ++i) chain.add_edge(i, i + 1);
  const auto radii2 = transmission_radii_squared(chain, points);
  EXPECT_EQ(interference_vector_squared(points, radii2, Strategy::kBrute),
            interference_vector_squared(points, radii2, Strategy::kGrid));
  EXPECT_EQ(interference_vector_squared(points, radii2, Strategy::kBrute),
            interference_vector_squared(points, radii2, Strategy::kParallel));
}

TEST(Interference, HistogramSumsToNodeCount) {
  const auto points = sim::uniform_square(80, 2.0, 7);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const InterferenceSummary s = Assessor{}.assess(udg, points);
  const auto hist = s.histogram();
  std::uint64_t total_nodes = 0;
  for (std::uint32_t h : hist) total_nodes += h;
  EXPECT_EQ(total_nodes, points.size());
  ASSERT_FALSE(hist.empty());
  EXPECT_GT(hist[s.max], 0u);  // at least one node attains the max
}

TEST(Interference, DegreeLowerBoundsNodeInterference) {
  // Section 3: a node's degree lower-bounds its interference (each neighbor
  // covers it), and Δ(UDG) upper-bounds graph interference of any subgraph.
  const auto points = sim::uniform_square(120, 2.5, 99);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph mst = topology::mst_topology(points, udg);
  const InterferenceSummary s = Assessor{}.assess(mst, points);
  for (NodeId v = 0; v < points.size(); ++v) {
    EXPECT_GE(s.per_node[v], mst.degree(v));
  }
  EXPECT_LE(s.max, udg.max_degree());
}

TEST(Interference, UdgInterferenceEqualsDegreeWhenComplete) {
  // In a complete UDG every node's radius reaches every other node.
  const auto points = sim::uniform_square(20, 0.5, 3);  // diameter < 1
  const graph::Graph udg = graph::build_udg(points, 1.0);
  ASSERT_EQ(udg.edge_count(), 20u * 19u / 2u);
  const InterferenceSummary s = Assessor{}.assess(udg, points);
  EXPECT_EQ(s.max, 19u);
  for (std::uint32_t i : s.per_node) EXPECT_EQ(i, 19u);
}

TEST(Interference, GraphInterferenceConvenienceMatchesSummary) {
  const auto points = sim::uniform_square(60, 2.0, 4);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  EXPECT_EQ(graph_interference(udg, points),
            Assessor{}.assess(udg, points).max);
}

TEST(Interference, AddingEdgesNeverDecreasesInterference) {
  // Radii grow monotonically with the edge set, hence coverage does too —
  // the monotonicity motivating "trees only" in Section 3.
  const auto points = sim::uniform_square(40, 1.5, 8);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  graph::Graph partial(points.size());
  std::vector<std::uint32_t> last(points.size(), 0);
  for (graph::Edge e : udg.edges()) {
    partial.add_edge(e.u, e.v);
    const InterferenceSummary s = Assessor{}.assess(partial, points);
    for (NodeId v = 0; v < points.size(); ++v) {
      EXPECT_GE(s.per_node[v], last[v]);
    }
    last = s.per_node;
  }
}

}  // namespace
}  // namespace rim::core
