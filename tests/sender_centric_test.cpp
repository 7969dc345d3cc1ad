#include <gtest/gtest.h>

#include "rim/core/sender_centric.hpp"
#include "rim/graph/udg.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/sim/generators.hpp"
#include "rim/topology/nearest_neighbor_forest.hpp"

namespace rim::core {
namespace {

TEST(EdgeCoverage, IsolatedPairCoversNothing) {
  const geom::PointSet points{{0, 0}, {1, 0}};
  EXPECT_EQ(edge_coverage(points, {0, 1}), 0u);
}

TEST(EdgeCoverage, ThirdNodeInsideEitherDisk) {
  // w within |uv| of u -> covered.
  const geom::PointSet points{{0, 0}, {1, 0}, {-0.5, 0}};
  EXPECT_EQ(edge_coverage(points, {0, 1}), 1u);
}

TEST(EdgeCoverage, NodeOutsideBothDisks) {
  const geom::PointSet points{{0, 0}, {1, 0}, {3, 0}};
  EXPECT_EQ(edge_coverage(points, {0, 1}), 0u);
}

TEST(EdgeCoverage, BoundaryCounts) {
  // w exactly at distance |uv| from v.
  const geom::PointSet points{{0, 0}, {1, 0}, {2, 0}};
  EXPECT_EQ(edge_coverage(points, {0, 1}), 1u);
}

TEST(EdgeCoverage, LongEdgeOverClusterCoversEveryone) {
  // The Figure 1 pathology: bridging edge covers the whole cluster.
  geom::PointSet points;
  for (int i = 0; i < 20; ++i) {
    points.push_back({0.01 * i, 0.0});
  }
  points.push_back({1.1, 0.0});  // outlier
  // Edge from the cluster's right edge (node 19 at x=0.19) to the outlier.
  EXPECT_EQ(edge_coverage(points, {19, 20}), 19u);
}

TEST(SenderCentric, SummaryAggregates) {
  const geom::PointSet points{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const SenderCentricSummary s = evaluate_sender_centric(g, points);
  ASSERT_EQ(s.per_edge.size(), 3u);
  // Edge {0,1}: covers node 2 (distance 1 from node 1). Edge {1,2}: covers
  // nodes 0 and 3. Edge {2,3}: covers node 1.
  EXPECT_EQ(s.per_edge[0], 1u);
  EXPECT_EQ(s.per_edge[1], 2u);
  EXPECT_EQ(s.per_edge[2], 1u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0 / 3.0);
}

TEST(SenderCentric, EmptyTopology) {
  const geom::PointSet points{{0, 0}, {1, 1}};
  const graph::Graph g(2);
  const SenderCentricSummary s = evaluate_sender_centric(g, points);
  EXPECT_EQ(s.max, 0u);
  EXPECT_TRUE(s.per_edge.empty());
}

TEST(SenderCentric, CoverageBoundedByNMinusTwo) {
  const auto points = sim::uniform_square(60, 1.5, 17);
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const SenderCentricSummary s = evaluate_sender_centric(udg, points);
  for (std::uint32_t c : s.per_edge) {
    EXPECT_LE(c, points.size() - 2);
  }
}

// --- Strategy parity: kGrid and kParallel count exactly what kBrute does. ---

void expect_strategies_match_brute(const graph::Graph& topology,
                                   const geom::PointSet& points) {
  const SenderCentricSummary brute = evaluate_sender_centric(topology, points);
  for (const Strategy strategy :
       {Strategy::kBrute, Strategy::kGrid, Strategy::kParallel}) {
    SCOPED_TRACE(testing::Message() << "strategy "
                                    << static_cast<int>(strategy));
    const SenderCentricSummary s = evaluate_sender_centric(
        topology, points, EvalOptions{}.with_strategy(strategy));
    EXPECT_EQ(s.per_edge, brute.per_edge);
    EXPECT_EQ(s.max, brute.max);
  }
}

TEST(SenderCentric, GridAndParallelMatchBruteOnRandomDeployments) {
  for (const std::uint64_t seed : {3ull, 17ull, 41ull}) {
    const auto points = sim::uniform_square(1500, 6.0, seed);
    expect_strategies_match_brute(graph::build_udg(points, 0.4), points);
    expect_strategies_match_brute(topology::nearest_neighbor_forest(points),
                                  points);
  }
}

TEST(SenderCentric, GridAndParallelMatchBruteOnExponentialChain) {
  // Figure 7: gaps 2^0 .. 2^(n-2) on one line, so edge lengths (and disk
  // radii) span the whole double range the chain normalises into.
  const highway::HighwayInstance chain = highway::exponential_chain(48);
  const geom::PointSet points = chain.to_points();
  expect_strategies_match_brute(chain.udg(1.0), points);
  graph::Graph path(points.size());
  for (NodeId v = 0; v + 1 < points.size(); ++v) path.add_edge(v, v + 1);
  expect_strategies_match_brute(path, points);
}

TEST(SenderCentric, PointOnBothBoundariesCountsOnce) {
  // w is exactly |uv| from u and from v (in floating point), so it lies on
  // both disks' boundaries; the union must count it once.
  const geom::PointSet points{{0.0, 0.0}, {6.0, 0.0}, {3.0, 5.196152422706632}};
  const double r2 = geom::dist2(points[0], points[1]);
  ASSERT_EQ(geom::dist2(points[2], points[0]), r2);
  ASSERT_EQ(geom::dist2(points[2], points[1]), r2);
  graph::Graph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(edge_coverage(points, {0, 1}), 1u);
  expect_strategies_match_brute(g, points);
}

}  // namespace
}  // namespace rim::core
