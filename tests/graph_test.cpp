#include <gtest/gtest.h>

#include <limits>

#include "rim/graph/connectivity.hpp"
#include "rim/graph/graph.hpp"
#include "rim/graph/mst.hpp"
#include "rim/graph/shortest_path.hpp"
#include "rim/graph/stretch.hpp"
#include "rim/graph/udg.hpp"
#include "rim/graph/union_find.hpp"
#include "rim/sim/generators.hpp"

namespace rim::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, AddEdgeBasics) {
  Graph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(2, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate (reversed)
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, EdgesAreCanonical) {
  Graph g(3);
  g.add_edge(2, 0);
  ASSERT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edges()[0], (Edge{0, 2}));
}

TEST(Graph, RemoveEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, ConstructFromEdgeList) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  const Graph g(3, edges);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, AddNode) {
  Graph g(2);
  g.add_edge(0, 1);
  const NodeId fresh = g.add_node();
  EXPECT_EQ(fresh, 2u);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.degree(fresh), 0u);
  EXPECT_TRUE(g.add_edge(fresh, 0));
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.component_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_EQ(uf.component_count(), 3u);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.component_size(3), 4u);
}

TEST(Connectivity, ComponentLabels) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(4, 5);
  const auto labels = component_labels(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_EQ(component_count(g), 3u);
  EXPECT_FALSE(is_connected(g));
}

TEST(Connectivity, SingleNodeIsConnected) {
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
  EXPECT_FALSE(is_connected(Graph(2)));
}

TEST(Connectivity, PreservesConnectivity) {
  Graph udg(4);
  udg.add_edge(0, 1);
  udg.add_edge(1, 2);
  udg.add_edge(0, 2);
  // node 3 isolated
  Graph tree(4);
  tree.add_edge(0, 1);
  tree.add_edge(1, 2);
  EXPECT_TRUE(preserves_connectivity(udg, tree));
  tree.remove_edge(1, 2);
  EXPECT_FALSE(preserves_connectivity(udg, tree));
  // Connecting MORE than the reference also fails the equivalence.
  Graph over(4);
  over.add_edge(0, 1);
  over.add_edge(1, 2);
  over.add_edge(2, 3);
  EXPECT_FALSE(preserves_connectivity(udg, over));
}

TEST(Connectivity, IsForest) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(is_forest(g));
  g.add_edge(0, 2);
  EXPECT_FALSE(is_forest(g));
}

TEST(Connectivity, BfsHops) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[3], 3u);
  EXPECT_EQ(hops[4], kUnreachableHops);
}

TEST(Udg, GridMatchesBruteForce) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto points = sim::uniform_square(150, 4.0, seed);
    const Graph fast = build_udg(points, 1.0);
    const Graph brute = build_udg_brute(points, 1.0);
    ASSERT_EQ(fast.edge_count(), brute.edge_count()) << "seed " << seed;
    for (Edge e : brute.edges()) EXPECT_TRUE(fast.has_edge(e.u, e.v));
  }
}

TEST(Udg, RadiusBoundaryIsClosed) {
  const geom::PointSet points{{0, 0}, {1, 0}, {2.0001, 0}};
  const Graph g = build_udg(points, 1.0);
  EXPECT_TRUE(g.has_edge(0, 1));    // exactly at radius
  EXPECT_FALSE(g.has_edge(1, 2));   // just beyond
}

TEST(Udg, ZeroRadiusHasNoEdges) {
  const geom::PointSet points{{0, 0}, {0, 0}};
  EXPECT_EQ(build_udg(points, 0.0).edge_count(), 0u);
}

TEST(Mst, KruskalProducesSpanningForest) {
  const auto points = sim::uniform_square(80, 3.0, 77);
  const Graph udg = build_udg(points, 1.0);
  const Graph forest = euclidean_mst(udg, points);
  EXPECT_TRUE(is_forest(forest));
  EXPECT_TRUE(preserves_connectivity(udg, forest));
}

TEST(Mst, MatchesCompleteGraphPrimOnConnectedInstance) {
  const auto points = sim::uniform_square(40, 1.0, 5);  // dense: UDG complete
  const Graph udg = build_udg(points, 2.0);
  ASSERT_EQ(udg.edge_count(), 40u * 39u / 2u);
  const Graph kruskal_tree = euclidean_mst(udg, points);
  const Graph prim_tree = euclidean_mst_complete(points);
  EXPECT_NEAR(total_length(kruskal_tree, points), total_length(prim_tree, points),
              1e-9);
}

TEST(Mst, TotalLengthOfKnownTree) {
  const geom::PointSet points{{0, 0}, {1, 0}, {1, 1}};
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(total_length(g, points), 2.0);
}

TEST(Mst, CustomWeightKruskal) {
  // Weight that inverts lengths: picks the two LONGEST edges of a triangle.
  const geom::PointSet points{{0, 0}, {1, 0}, {0, 3}};
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  const Graph t = kruskal(
      g, [&](Edge e) { return -geom::dist(points[e.u], points[e.v]); });
  EXPECT_EQ(t.edge_count(), 2u);
  EXPECT_TRUE(t.has_edge(1, 2));
  EXPECT_TRUE(t.has_edge(0, 2));
}

TEST(ShortestPath, DijkstraKnownDistances) {
  const geom::PointSet points{{0, 0}, {1, 0}, {2, 0}, {0, 5}};
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto d = euclidean_dijkstra(g, 0, points);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(ShortestPath, TriangleInequalityOnRandomUdg) {
  const auto points = sim::uniform_square(60, 2.0, 21);
  const Graph udg = build_udg(points, 1.0);
  const auto d0 = euclidean_dijkstra(udg, 0, points);
  for (NodeId v = 0; v < points.size(); ++v) {
    if (d0[v] == kUnreachable) continue;
    // Graph distance is at least the Euclidean distance.
    EXPECT_GE(d0[v] + 1e-12, geom::dist(points[0], points[v]));
  }
}

TEST(ShortestPath, ApspSymmetric) {
  const auto points = sim::uniform_square(25, 1.5, 33);
  const Graph udg = build_udg(points, 1.0);
  const std::size_t n = points.size();
  std::vector<std::vector<double>> m;
  for (NodeId s = 0; s < n; ++s) m.push_back(euclidean_dijkstra(udg, s, points));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(m[i][i], 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
    }
  }
}

TEST(Stretch, IdenticalGraphHasUnitStretch) {
  const auto points = sim::uniform_square(40, 2.0, 9);
  const Graph udg = build_udg(points, 1.0);
  const auto report = measure_stretch(udg, udg, points);
  EXPECT_DOUBLE_EQ(report.max_euclidean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(report.max_hop_stretch, 1.0);
}

TEST(Stretch, SubgraphStretchAtLeastOne) {
  const auto points = sim::uniform_square(50, 2.0, 10);
  const Graph udg = build_udg(points, 1.0);
  const Graph mst = euclidean_mst(udg, points);
  const auto report = measure_stretch(udg, mst, points);
  EXPECT_GE(report.max_euclidean_stretch, 1.0);
  EXPECT_GE(report.mean_euclidean_stretch, 1.0);
  EXPECT_LE(report.mean_euclidean_stretch, report.max_euclidean_stretch);
  EXPECT_LT(report.max_euclidean_stretch,
            std::numeric_limits<double>::infinity());
}

TEST(Stretch, DisconnectionYieldsInfiniteStretch) {
  const geom::PointSet points{{0, 0}, {0.5, 0}, {1.0, 0}};
  Graph reference(3);
  reference.add_edge(0, 1);
  reference.add_edge(1, 2);
  Graph broken(3);
  broken.add_edge(0, 1);
  const auto report = measure_stretch(reference, broken, points);
  EXPECT_EQ(report.max_euclidean_stretch, std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace rim::graph
