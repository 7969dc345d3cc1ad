#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "rim/graph/connectivity.hpp"
#include "rim/graph/udg.hpp"
#include "rim/topology/cbtc.hpp"
#include "rim/topology/gabriel.hpp"
#include "rim/topology/knn.hpp"
#include "rim/topology/life.hpp"
#include "rim/topology/lise.hpp"
#include "rim/topology/lmst.hpp"
#include "rim/topology/mst_topology.hpp"
#include "rim/topology/nearest_neighbor_forest.hpp"
#include "rim/topology/registry.hpp"
#include "rim/topology/rng_graph.hpp"
#include "rim/topology/xtc.hpp"
#include "rim/topology/yao.hpp"
#include "rim/graph/stretch.hpp"
#include "rim/sim/generators.hpp"

namespace rim::topology {
namespace {

struct Instance {
  geom::PointSet points;
  graph::Graph udg;
};

Instance random_instance(std::size_t n, double side, std::uint64_t seed) {
  Instance inst;
  inst.points = sim::uniform_square(n, side, seed);
  inst.udg = graph::build_udg(inst.points, 1.0);
  return inst;
}

bool is_subgraph(const graph::Graph& sub, const graph::Graph& super) {
  for (graph::Edge e : sub.edges()) {
    if (!super.has_edge(e.u, e.v)) return false;
  }
  return true;
}

TEST(Nnf, EveryNonIsolatedNodeHasItsNearestNeighborLink) {
  const Instance inst = random_instance(80, 2.0, 3);
  const graph::Graph nnf = nearest_neighbor_forest(inst.points, inst.udg);
  for (NodeId u = 0; u < inst.points.size(); ++u) {
    if (inst.udg.degree(u) == 0) {
      EXPECT_EQ(nnf.degree(u), 0u);
      continue;
    }
    NodeId nearest = kInvalidNode;
    double best = std::numeric_limits<double>::infinity();
    for (NodeId v : inst.udg.neighbors(u)) {
      const double d2 = geom::dist2(inst.points[u], inst.points[v]);
      if (d2 < best || (d2 == best && v < nearest)) {
        best = d2;
        nearest = v;
      }
    }
    EXPECT_TRUE(nnf.has_edge(u, nearest)) << "node " << u;
  }
}

TEST(Nnf, IsSubgraphOfUdg) {
  const Instance inst = random_instance(60, 2.5, 4);
  EXPECT_TRUE(is_subgraph(nearest_neighbor_forest(inst.points, inst.udg), inst.udg));
}

TEST(Nnf, MutualNearestPairProducesOneEdge) {
  const geom::PointSet points{{0, 0}, {0.1, 0}};
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph nnf = nearest_neighbor_forest(points, udg);
  EXPECT_EQ(nnf.edge_count(), 1u);
}

// --- Points-only NNF identity: the grid form equals the UDG form and
// brute force, edge list and adjacency order included. ---

/// Brute-force NNF: every node links to its nearest other node (ties toward
/// the smaller id), links added in ascending node order.
graph::Graph brute_nnf(const geom::PointSet& points) {
  graph::Graph out(points.size());
  for (NodeId u = 0; u < points.size(); ++u) {
    NodeId best = kInvalidNode;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < points.size(); ++v) {
      if (v == u) continue;
      const double d2 = geom::dist2(points[u], points[v]);
      if (d2 < best_d2 || (d2 == best_d2 && v < best)) {
        best_d2 = d2;
        best = v;
      }
    }
    if (best != kInvalidNode) out.add_edge(u, best);
  }
  return out;
}

/// The largest nearest-neighbour distance, nudged up so the UDG's closed
/// test dist2 <= R * R keeps the farthest nearest pair.
double nn_cover_radius(const geom::PointSet& points) {
  double max_d2 = 0.0;
  for (NodeId u = 0; u < points.size(); ++u) {
    double best = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < points.size(); ++v) {
      if (v != u) best = std::min(best, geom::dist2(points[u], points[v]));
    }
    max_d2 = std::max(max_d2, best);
  }
  return std::sqrt(max_d2) * (1.0 + 1e-9);
}

void expect_same_graph(const graph::Graph& got, const graph::Graph& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  EXPECT_TRUE(std::equal(got.edges().begin(), got.edges().end(),
                         want.edges().begin(), want.edges().end()));
  for (NodeId u = 0; u < got.node_count(); ++u) {
    EXPECT_TRUE(std::equal(got.neighbors(u).begin(), got.neighbors(u).end(),
                           want.neighbors(u).begin(), want.neighbors(u).end()))
        << "adjacency of node " << u;
  }
}

void expect_points_only_nnf_identity(const geom::PointSet& points) {
  const graph::Graph grid = nearest_neighbor_forest(points);
  expect_same_graph(grid, brute_nnf(points));
  const double r = nn_cover_radius(points);
  for (const double radius : {r, 2.0 * r}) {
    SCOPED_TRACE(testing::Message() << "udg radius " << radius);
    expect_same_graph(grid, nearest_neighbor_forest(
                                points, graph::build_udg(points, radius)));
  }
}

TEST(Nnf, PointsOnlyFormMatchesUdgFormAndBruteOnUniform) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 11u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_points_only_nnf_identity(sim::uniform_square(300, 5.0, seed));
  }
}

TEST(Nnf, PointsOnlyFormMatchesUdgFormAndBruteWithDuplicates) {
  for (const std::uint64_t seed : {4u, 5u}) {
    geom::PointSet points = sim::gaussian_clusters(120, 3, 4.0, 0.3, seed);
    // Every other point repeated: ties at distance 0 break toward the
    // smaller id, and a pair of duplicates is mutually nearest.
    const std::size_t base = points.size();
    for (std::size_t v = 0; v < base; v += 2) points.push_back(points[v]);
    points.push_back(points.front());
    expect_points_only_nnf_identity(points);
  }
}

TEST(Nnf, PointsOnlyFormMatchesUdgFormAndBruteOnCollinearPoints) {
  geom::PointSet line;
  geom::PointSet evenly;  // equal gaps: every interior node has a tie
  for (int i = 0; i < 150; ++i) {
    const double t = 0.37 * static_cast<double>((i * 53) % 150);
    line.push_back({t, 2.0 * t + 1.0});
    evenly.push_back({static_cast<double>((i * 7) % 150), 0.0});
  }
  expect_points_only_nnf_identity(line);
  expect_points_only_nnf_identity(evenly);
}

TEST(Mst, ContainsNnf) {
  // Classic fact: the Euclidean MST contains every nearest-neighbor link.
  const Instance inst = random_instance(70, 2.0, 5);
  const graph::Graph nnf = nearest_neighbor_forest(inst.points, inst.udg);
  const graph::Graph mst = mst_topology(inst.points, inst.udg);
  EXPECT_TRUE(is_subgraph(nnf, mst));
}

TEST(HierarchyOnRandomInstances, MstInRngInGabrielInUdg) {
  for (std::uint64_t seed : {1u, 2u, 3u, 9u}) {
    const Instance inst = random_instance(90, 2.0, seed);
    const graph::Graph mst = mst_topology(inst.points, inst.udg);
    const graph::Graph rng = relative_neighborhood_graph(inst.points, inst.udg);
    const graph::Graph gg = gabriel_graph(inst.points, inst.udg);
    EXPECT_TRUE(is_subgraph(mst, rng)) << seed;
    EXPECT_TRUE(is_subgraph(rng, gg)) << seed;
    EXPECT_TRUE(is_subgraph(gg, inst.udg)) << seed;
  }
}

TEST(Gabriel, RemovesEdgeWithWitnessInsideDiametralDisk) {
  const geom::PointSet points{{0, 0}, {1, 0}, {0.5, 0.1}};
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph gg = gabriel_graph(points, udg);
  EXPECT_FALSE(gg.has_edge(0, 1));
  EXPECT_TRUE(gg.has_edge(0, 2));
  EXPECT_TRUE(gg.has_edge(1, 2));
}

TEST(Gabriel, RightAngleWitnessOnBoundaryDoesNotBlock) {
  // Witness exactly on the diametral circle: edge survives (open-disk rule).
  const geom::PointSet points{{0, 0}, {1, 0}, {0.5, 0.5}};
  const graph::Graph udg = graph::build_udg(points, 1.0);
  EXPECT_TRUE(gabriel_graph(points, udg).has_edge(0, 1));
}

TEST(RngGraph, LuneWitnessBlocksEdge) {
  // Equilateral-ish: node 2 close to both 0 and 1 kills edge {0,1}.
  const geom::PointSet points{{0, 0}, {1, 0}, {0.5, 0.3}};
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph rng = relative_neighborhood_graph(points, udg);
  EXPECT_FALSE(rng.has_edge(0, 1));
}

TEST(Yao, UnionPreservesConnectivityWithSixCones) {
  for (std::uint64_t seed : {1u, 6u, 11u}) {
    const Instance inst = random_instance(100, 2.0, seed);
    const graph::Graph yao = yao_graph(inst.points, inst.udg, 6);
    EXPECT_TRUE(graph::preserves_connectivity(inst.udg, yao)) << seed;
    EXPECT_TRUE(is_subgraph(yao, inst.udg)) << seed;
  }
}

TEST(Yao, OneConeKeepsOnlyNearestByAngleStructure) {
  const geom::PointSet points{{0, 0}, {0.5, 0.1}, {0.9, 0.2}};
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph yao = yao_graph(points, udg, 1);
  // With a single cone each node keeps just its nearest neighbor (union
  // symmetrization): same result as the NNF here.
  EXPECT_TRUE(yao.has_edge(0, 1));
  EXPECT_TRUE(yao.has_edge(1, 2));
  EXPECT_FALSE(yao.has_edge(0, 2));
}

TEST(Yao, IntersectionIsSubgraphOfUnion) {
  const Instance inst = random_instance(80, 2.0, 13);
  const graph::Graph yu = yao_graph(inst.points, inst.udg, 6, Symmetrization::kUnion);
  const graph::Graph yi =
      yao_graph(inst.points, inst.udg, 6, Symmetrization::kIntersection);
  EXPECT_TRUE(is_subgraph(yi, yu));
}

TEST(Xtc, PreservesConnectivityAndBoundsDegree) {
  for (std::uint64_t seed : {2u, 8u, 14u}) {
    const Instance inst = random_instance(120, 2.0, seed);
    const graph::Graph x = xtc(inst.points, inst.udg);
    EXPECT_TRUE(graph::preserves_connectivity(inst.udg, x)) << seed;
    // Euclidean XTC is a subgraph of the RNG, whose degree is at most 6
    // for points in general position.
    EXPECT_LE(x.max_degree(), 6u) << seed;
    EXPECT_TRUE(
        is_subgraph(x, relative_neighborhood_graph(inst.points, inst.udg)))
        << seed;
  }
}

TEST(Lmst, PreservesConnectivityAndBoundsDegree) {
  for (std::uint64_t seed : {3u, 7u, 19u}) {
    const Instance inst = random_instance(120, 2.0, seed);
    const graph::Graph l = lmst(inst.points, inst.udg);
    EXPECT_TRUE(graph::preserves_connectivity(inst.udg, l)) << seed;
    EXPECT_LE(l.max_degree(), 6u) << seed;
    EXPECT_TRUE(is_subgraph(l, inst.udg)) << seed;
  }
}

TEST(Lmst, ContainsGlobalMst) {
  // With consistent unique weights the global MST survives localization.
  const Instance inst = random_instance(60, 1.5, 23);
  const graph::Graph global = mst_topology(inst.points, inst.udg);
  const graph::Graph local = lmst(inst.points, inst.udg);
  EXPECT_TRUE(is_subgraph(global, local));
}

TEST(Life, SpanningForestPreservingConnectivity) {
  for (std::uint64_t seed : {4u, 10u, 16u}) {
    const Instance inst = random_instance(70, 2.0, seed);
    const graph::Graph f = life(inst.points, inst.udg);
    EXPECT_TRUE(graph::is_forest(f)) << seed;
    EXPECT_TRUE(graph::preserves_connectivity(inst.udg, f)) << seed;
  }
}

TEST(Lise, ProducesTSpanner) {
  const Instance inst = random_instance(60, 1.8, 31);
  const double t = 2.0;
  const graph::Graph spanner = lise(inst.points, inst.udg, t);
  const auto report = graph::measure_stretch(inst.udg, spanner, inst.points);
  EXPECT_LE(report.max_euclidean_stretch, t + 1e-9);
}

TEST(Lise, LargerTGivesSparserGraph) {
  const Instance inst = random_instance(60, 1.8, 32);
  const graph::Graph tight = lise(inst.points, inst.udg, 1.2);
  const graph::Graph loose = lise(inst.points, inst.udg, 4.0);
  EXPECT_GE(tight.edge_count(), loose.edge_count());
}

TEST(Knn, DegreeAtLeastKWhenUdgRich) {
  const Instance inst = random_instance(100, 1.2, 40);  // dense
  const std::size_t k = 3;
  const graph::Graph g = knn_topology(inst.points, inst.udg, k);
  for (NodeId u = 0; u < inst.points.size(); ++u) {
    const std::size_t expect = std::min(k, inst.udg.degree(u));
    EXPECT_GE(g.degree(u), expect) << "node " << u;
  }
}

TEST(Knn, ContainsNnf) {
  const Instance inst = random_instance(80, 2.0, 41);
  const graph::Graph nnf = nearest_neighbor_forest(inst.points, inst.udg);
  const graph::Graph g = knn_topology(inst.points, inst.udg, 1);
  EXPECT_TRUE(is_subgraph(nnf, g));
}

TEST(Cbtc, PreservesConnectivityAtTwoThirdsPi) {
  for (std::uint64_t seed : {5u, 21u, 33u}) {
    const Instance inst = random_instance(110, 2.0, seed);
    const graph::Graph c = cbtc(inst.points, inst.udg);
    EXPECT_TRUE(graph::preserves_connectivity(inst.udg, c)) << seed;
    EXPECT_TRUE(is_subgraph(c, inst.udg)) << seed;
  }
}

TEST(Cbtc, ContainsNnf) {
  // CBTC grows nearest-first, so the nearest neighbor is always selected.
  const Instance inst = random_instance(90, 2.0, 6);
  const graph::Graph nnf = nearest_neighbor_forest(inst.points, inst.udg);
  const graph::Graph c = cbtc(inst.points, inst.udg);
  EXPECT_TRUE(is_subgraph(nnf, c));
}

TEST(Cbtc, SmallerAlphaKeepsMoreEdges) {
  const Instance inst = random_instance(100, 2.0, 7);
  const graph::Graph narrow = cbtc(inst.points, inst.udg, 1.0);
  const graph::Graph wide = cbtc(inst.points, inst.udg, 3.0);
  EXPECT_GE(narrow.edge_count(), wide.edge_count());
}

TEST(Cbtc, NodeWithCoveredConesStopsEarly) {
  // A node surrounded by 3 close neighbors at 120° needs nothing farther.
  geom::PointSet points{{0, 0}};
  for (int k = 0; k < 3; ++k) {
    const double angle = 2.0 * 3.14159265358979 * k / 3.0;
    points.push_back({0.1 * std::cos(angle), 0.1 * std::sin(angle)});
  }
  points.push_back({0.9, 0.0});  // far node that u need not select
  const graph::Graph udg = graph::build_udg(points, 1.0);
  const graph::Graph c = cbtc(points, udg, 2.0943951023931953);
  // Node 0 keeps its three ring neighbors; the far node may still connect
  // TO node 0 (union symmetrization), so only check node 0's own growth
  // stopped: it selected nothing beyond the ring before cones were covered.
  EXPECT_TRUE(c.has_edge(0, 1));
  EXPECT_TRUE(c.has_edge(0, 2));
  EXPECT_TRUE(c.has_edge(0, 3));
}

TEST(Registry, AllAlgorithmsListedAndFindable) {
  const auto algorithms = all_algorithms();
  EXPECT_GE(algorithms.size(), 13u);
  for (const NamedAlgorithm& a : algorithms) {
    EXPECT_EQ(find_algorithm(a.name), &a);
  }
  EXPECT_EQ(find_algorithm("no-such-algorithm"), nullptr);
}

TEST(Registry, DeclaredConnectivityPreservationHolds) {
  const Instance inst = random_instance(90, 2.0, 50);
  for (const NamedAlgorithm& a : all_algorithms()) {
    const graph::Graph result = a.build(inst.points, inst.udg);
    EXPECT_TRUE(is_subgraph(result, inst.udg)) << a.name;
    if (a.preserves_connectivity) {
      EXPECT_TRUE(graph::preserves_connectivity(inst.udg, result)) << a.name;
    }
  }
}

TEST(Registry, DeclaredNnfContainmentHolds) {
  const Instance inst = random_instance(90, 2.0, 51);
  const graph::Graph nnf = nearest_neighbor_forest(inst.points, inst.udg);
  for (const NamedAlgorithm& a : all_algorithms()) {
    if (!a.contains_nnf) continue;
    const graph::Graph result = a.build(inst.points, inst.udg);
    EXPECT_TRUE(is_subgraph(nnf, result)) << a.name;
  }
}

TEST(Registry, AlgorithmsAreDeterministic) {
  const Instance inst = random_instance(70, 2.0, 52);
  for (const NamedAlgorithm& a : all_algorithms()) {
    const graph::Graph first = a.build(inst.points, inst.udg);
    const graph::Graph second = a.build(inst.points, inst.udg);
    ASSERT_EQ(first.edge_count(), second.edge_count()) << a.name;
    for (graph::Edge e : first.edges()) {
      EXPECT_TRUE(second.has_edge(e.u, e.v)) << a.name;
    }
  }
}

TEST(Registry, HandlesDisconnectedInputs) {
  // Two far-apart blobs: every algorithm must cope with multi-component UDGs.
  geom::PointSet points = sim::uniform_square(30, 0.8, 53);
  for (const geom::Vec2& p : sim::uniform_square(30, 0.8, 54)) {
    points.push_back({p.x + 10.0, p.y});
  }
  const graph::Graph udg = graph::build_udg(points, 1.0);
  ASSERT_GT(graph::component_count(udg), 1u);
  for (const NamedAlgorithm& a : all_algorithms()) {
    const graph::Graph result = a.build(points, udg);
    if (a.preserves_connectivity) {
      EXPECT_TRUE(graph::preserves_connectivity(udg, result)) << a.name;
    }
  }
}

TEST(Registry, EmptyAndSingletonInputs) {
  const geom::PointSet empty;
  const graph::Graph udg0 = graph::build_udg(empty, 1.0);
  const geom::PointSet one{{0, 0}};
  const graph::Graph udg1 = graph::build_udg(one, 1.0);
  for (const NamedAlgorithm& a : all_algorithms()) {
    EXPECT_EQ(a.build(empty, udg0).node_count(), 0u) << a.name;
    const graph::Graph g1 = a.build(one, udg1);
    EXPECT_EQ(g1.node_count(), 1u) << a.name;
    EXPECT_EQ(g1.edge_count(), 0u) << a.name;
  }
}

}  // namespace
}  // namespace rim::topology
