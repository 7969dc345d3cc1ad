#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/graph/connectivity.hpp"
#include "rim/graph/udg.hpp"
#include "rim/highway/bounds.hpp"
#include "rim/highway/critical.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/highway/interference_1d.hpp"
#include "rim/highway/linear_chain.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"

namespace rim::highway {
namespace {

TEST(HighwayInstance, SortsPositions) {
  const auto inst = HighwayInstance::from_positions({3.0, 1.0, 2.0});
  EXPECT_EQ(inst.positions(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(inst.span(), 2.0);
}

TEST(HighwayInstance, ToPointsEmbedsOnAxis) {
  const auto inst = HighwayInstance::from_positions({0.0, 0.5});
  const auto points = inst.to_points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(geom::is_one_dimensional(points));
  EXPECT_DOUBLE_EQ(points[1].x, 0.5);
}

TEST(HighwayInstance, UdgMatchesGeneric2DConstruction) {
  const auto inst = sim::uniform_highway(120, 15.0, 3);
  const graph::Graph one_d = inst.udg(1.0);
  const graph::Graph two_d = graph::build_udg_brute(inst.to_points(), 1.0);
  ASSERT_EQ(one_d.edge_count(), two_d.edge_count());
  for (graph::Edge e : two_d.edges()) EXPECT_TRUE(one_d.has_edge(e.u, e.v));
}

TEST(HighwayInstance, MaxDegreeMatchesUdg) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto inst = sim::uniform_highway(100, 12.0, seed);
    EXPECT_EQ(inst.max_degree(1.0), inst.udg(1.0).max_degree()) << seed;
  }
}

TEST(HighwayInstance, UdgConnectedIffNoLargeGap) {
  const auto connected = HighwayInstance::from_positions({0.0, 0.9, 1.8});
  EXPECT_TRUE(connected.udg_connected(1.0));
  const auto split = HighwayInstance::from_positions({0.0, 0.9, 2.0});
  EXPECT_FALSE(split.udg_connected(1.0));
  EXPECT_TRUE(split.udg_connected(1.11));
}

TEST(ExponentialChain, GapsDoubleAndSpanNormalised) {
  const auto chain = exponential_chain(8);
  const auto& xs = chain.positions();
  ASSERT_EQ(xs.size(), 8u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1.0);
  for (std::size_t i = 2; i < xs.size(); ++i) {
    EXPECT_NEAR((xs[i] - xs[i - 1]) / (xs[i - 1] - xs[i - 2]), 2.0, 1e-9);
  }
}

TEST(ExponentialChain, DeltaIsNMinusOne) {
  // Span <= 1 means the UDG is complete (paper Section 5.1).
  const auto chain = exponential_chain(16);
  EXPECT_EQ(chain.max_degree(1.0), 15u);
}

TEST(ExponentialChain, LargestSupportedSize) {
  const auto chain = exponential_chain(1024);
  EXPECT_EQ(chain.size(), 1024u);
  EXPECT_TRUE(std::is_sorted(chain.positions().begin(), chain.positions().end()));
  EXPECT_GT(chain.positions()[1], 0.0);  // smallest gap still resolvable
}

TEST(Interference1D, MatchesGenericEvaluatorOnRandomInstances) {
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    const auto inst = sim::uniform_highway(150, 10.0, seed);
    const graph::Graph chain = linear_chain(inst, 1.0);
    const auto points = inst.to_points();
    const auto radii = core::transmission_radii(chain, points);
    const auto fast = interference_1d(inst.positions(), radii);
    const auto generic = core::interference_vector_squared(
        points, core::transmission_radii_squared(chain, points),
        core::Strategy::kBrute);
    EXPECT_EQ(fast, generic) << seed;
  }
}

TEST(Interference1D, ZeroRadiiZeroInterference) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  const std::vector<double> radii{0.0, 0.0, 0.0};
  const auto v = interference_1d(xs, radii);
  EXPECT_EQ(v, (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(Interference1D, ClosedIntervalBoundary) {
  const std::vector<double> xs{0.0, 1.0};
  const std::vector<double> radii{1.0, 0.0};
  const auto v = interference_1d(xs, radii);
  EXPECT_EQ(v[1], 1u);  // exactly at radius: covered
  EXPECT_EQ(v[0], 0u);  // self-coverage excluded
}

TEST(Coverage1D, IncrementalMatchesBatch) {
  const auto inst = sim::uniform_highway(100, 8.0, 12);
  const auto& xs = inst.positions();
  Coverage1D cov(xs);
  std::vector<double> radii(xs.size(), 0.0);
  sim::Rng rng(99);
  for (int step = 0; step < 300; ++step) {
    const NodeId u = static_cast<NodeId>(rng.next_below(xs.size()));
    const double r = rng.uniform(0.0, 3.0);
    cov.raise_radius(u, r);
    radii[u] = std::max(radii[u], r);
    if (step % 50 == 0) {
      const auto expected = interference_1d(xs, radii);
      for (NodeId v = 0; v < xs.size(); ++v) {
        ASSERT_EQ(cov.interference_of(v), expected[v])
            << "step " << step << " node " << v;
      }
      const std::uint32_t expected_max =
          *std::max_element(expected.begin(), expected.end());
      EXPECT_EQ(cov.max_interference(), expected_max);
    }
  }
}

TEST(Coverage1D, LoweringRadiusIsIgnored) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  Coverage1D cov(xs);
  cov.raise_radius(0, 2.0);
  EXPECT_EQ(cov.interference_of(2), 1u);
  cov.raise_radius(0, 0.5);  // no-op
  EXPECT_EQ(cov.interference_of(2), 1u);
}

TEST(LinearChain, Figure7LinearExponentialChainInterference) {
  // Figure 7: connecting the exponential chain linearly yields interference
  // n-2 at the leftmost node (every node but the rightmost covers it).
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const auto chain = exponential_chain(n);
    const graph::Graph topo = linear_chain(chain, 1.0);
    const auto points = chain.to_points();
    const auto radii = core::transmission_radii(topo, points);
    const auto per_node = interference_1d(chain.positions(), radii);
    EXPECT_EQ(per_node[0], n - 2) << "n=" << n;
    EXPECT_EQ(graph_interference_1d(chain, topo), n - 2) << "n=" << n;
  }
}

TEST(LinearChain, UniformSpacingHasConstantInterference) {
  // Contrast case driving A_apx: equal gaps -> every node covered by <= 4.
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(0.3 * i);
  const auto inst = HighwayInstance::from_positions(std::move(xs));
  const graph::Graph topo = linear_chain(inst, 1.0);
  EXPECT_LE(graph_interference_1d(inst, topo), 4u);
}

TEST(LinearChain, SkipsGapsBeyondRadius) {
  const auto inst = HighwayInstance::from_positions({0.0, 0.5, 3.0, 3.5});
  const graph::Graph topo = linear_chain(inst, 1.0);
  EXPECT_EQ(topo.edge_count(), 2u);
  EXPECT_TRUE(topo.has_edge(0, 1));
  EXPECT_TRUE(topo.has_edge(2, 3));
  EXPECT_TRUE(graph::preserves_connectivity(inst.udg(1.0), topo));
}

TEST(Critical, LinearRadiiOfUniformChain) {
  const auto inst = HighwayInstance::from_positions({0.0, 1.0, 2.0, 3.0});
  const auto radii = linear_radii(inst, 1.0);
  EXPECT_EQ(radii, (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
}

TEST(Critical, CountsEqualLinearChainInterference) {
  for (std::uint64_t seed : {21u, 22u}) {
    const auto inst = sim::uniform_highway(120, 10.0, seed);
    const graph::Graph chain = linear_chain(inst, 1.0);
    const auto points = inst.to_points();
    const auto radii = core::transmission_radii(chain, points);
    EXPECT_EQ(critical_counts(inst, 1.0),
              interference_1d(inst.positions(), radii))
        << seed;
  }
}

TEST(Critical, CriticalSetMatchesDefinition52) {
  const auto chain = exponential_chain(10);
  const auto counts = critical_counts(chain, 1.0);
  for (NodeId v = 0; v < chain.size(); v += 3) {
    const auto set = critical_set(chain, v, 1.0);
    EXPECT_EQ(set.size(), counts[v]) << "node " << v;
    for (NodeId u : set) EXPECT_NE(u, v);
  }
}

TEST(Critical, GammaOfExponentialChainIsNMinusTwo) {
  // The leftmost node is interfered with by all linear-chain transmitters
  // except the rightmost.
  for (std::size_t n : {6u, 12u, 24u}) {
    EXPECT_EQ(gamma(exponential_chain(n), 1.0), n - 2) << n;
  }
}

TEST(Critical, GammaOfUniformChainIsSmall) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(0.4 * i);
  EXPECT_LE(gamma(HighwayInstance::from_positions(std::move(xs)), 1.0), 4u);
}

TEST(Bounds, ExponentialChainLowerBoundValues) {
  EXPECT_EQ(exponential_chain_lower_bound(2), 1u);
  EXPECT_EQ(exponential_chain_lower_bound(5), 2u);   // 2^2+1 = 5
  EXPECT_EQ(exponential_chain_lower_bound(6), 3u);   // needs I=3
  EXPECT_EQ(exponential_chain_lower_bound(10), 3u);  // 3^2+1 = 10
  EXPECT_EQ(exponential_chain_lower_bound(11), 4u);
  EXPECT_EQ(exponential_chain_lower_bound(101), 10u);
}

TEST(Bounds, LowerBoundIsMonotone) {
  std::uint32_t last = 0;
  for (std::size_t n = 2; n < 2000; ++n) {
    const std::uint32_t lb = exponential_chain_lower_bound(n);
    EXPECT_GE(lb, last);
    last = lb;
  }
}

TEST(Bounds, AexpUpperBoundAtLeastLowerBound) {
  for (std::size_t n = 2; n < 1000; ++n) {
    EXPECT_GE(aexp_upper_bound(n), exponential_chain_lower_bound(n)) << n;
  }
}

TEST(Bounds, AexpUpperBoundGrowsLikeSqrt) {
  EXPECT_LE(aexp_upper_bound(10000), 160u);  // ~ sqrt(2*10000) = 141
  EXPECT_GE(aexp_upper_bound(10000), 120u);
}

TEST(Bounds, Lemma55LowerBound) {
  EXPECT_DOUBLE_EQ(lemma55_lower_bound(0), 0.0);
  EXPECT_DOUBLE_EQ(lemma55_lower_bound(2), 0.0);
  EXPECT_DOUBLE_EQ(lemma55_lower_bound(4), 1.0);
  EXPECT_NEAR(lemma55_lower_bound(100), std::sqrt(49.0), 1e-12);
}

}  // namespace
}  // namespace rim::highway
