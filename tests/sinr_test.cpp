#include "rim/core/sinr.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "rim/core/assessor.hpp"
#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"
#include "rim/graph/graph.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/sim/random_deployment.hpp"
#include "rim/sim/rng.hpp"
#include "rim/simd/simd.hpp"
#include "rim/topology/nearest_neighbor_forest.hpp"

// The SINR comparator (DESIGN.md §12). The load-bearing contracts:
//  * SIMD and scalar twins are bit-identical within a strategy — same
//    power bit patterns, same checksum, same significant counts;
//  * the significant-interferer counts are strategy-invariant integers
//    (brute gather and grid scatter see identical per-pair contributions);
//  * the grid scatter's power bits do not depend on its receiver-stripe
//    count, so kGrid, kParallel and every stripe count agree bit for bit;
//  * eligibility edges behave: coincident nodes drop out, radius-0 nodes
//    do not transmit, the cutoff boundary is inclusive, and denormal
//    distances stay deterministic (both twins agree even when the
//    contribution overflows).

namespace {

using rim::NodeId;
using rim::core::EvalOptions;
using rim::core::Model;
using rim::core::SinrAssessor;
using rim::core::SinrOptions;
using rim::core::SinrSummary;
using rim::core::Strategy;

/// The node state the assessor takes: node v at points[v] with squared
/// radius radii2[v].
struct Nodes {
  rim::geom::PointSet points;
  std::vector<double> radii2;
};

rim::geom::PointSet deployment_points(std::size_t n, std::uint64_t seed) {
  return rim::sim::RandomDeployment(
             rim::sim::RandomDeployment::Params{}.with_nodes(n).with_side(
                 std::sqrt(static_cast<double>(n) / 12.5)),
             seed)
      .generate();
}

Nodes deployment_store(std::size_t n, std::uint64_t seed) {
  // A seeded uniform deployment with NNF-derived radii — the same node
  // family E23 runs, scaled down.
  const rim::geom::PointSet points = deployment_points(n, seed);
  const rim::graph::Graph forest = rim::topology::nearest_neighbor_forest(points);
  return {points, rim::core::transmission_radii_squared(forest, points)};
}

void expect_bit_identical(const SinrSummary& a, const SinrSummary& b) {
  ASSERT_EQ(a.power.size(), b.power.size());
  for (std::size_t i = 0; i < a.power.size(); ++i) {
    EXPECT_EQ(a.power[i], b.power[i]) << "power diverged at node " << i;
  }
  EXPECT_EQ(a.power_checksum, b.power_checksum);
  EXPECT_EQ(a.per_node, b.per_node);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.total, b.total);
}

// --- The property pair: SIMD vs scalar twins on randomized deployments. ---

TEST(SinrAssessor, SimdScalarBitIdenticalAcrossSeedsBrute) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 97ull}) {
    const Nodes nodes = deployment_store(257, seed);  // odd n => SIMD tail
    const EvalOptions options = EvalOptions{}.with_strategy(Strategy::kBrute);
    const SinrAssessor assessor(options);
    expect_bit_identical(assessor.assess(nodes.points, nodes.radii2),
                         assessor.assess_scalar(nodes.points, nodes.radii2));
  }
}

TEST(SinrAssessor, SimdScalarBitIdenticalAcrossSeedsGrid) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 97ull}) {
    const Nodes nodes = deployment_store(257, seed);
    const EvalOptions options = EvalOptions{}.with_strategy(Strategy::kGrid);
    const SinrAssessor assessor(options);
    expect_bit_identical(assessor.assess(nodes.points, nodes.radii2),
                         assessor.assess_scalar(nodes.points, nodes.radii2));
  }
}

TEST(SinrAssessor, SimdScalarBitIdenticalUnderHigherAlpha) {
  // alpha = 6 (half_alpha = 3): the ipow ladder beyond the squaring case.
  const Nodes nodes = deployment_store(128, 5);
  const EvalOptions options =
      EvalOptions{}.with_strategy(Strategy::kBrute).with_sinr(
          SinrOptions{}.with_half_alpha(3));
  const SinrAssessor assessor(options);
  expect_bit_identical(assessor.assess(nodes.points, nodes.radii2),
                       assessor.assess_scalar(nodes.points, nodes.radii2));
}

// --- Strategy invariance of the integer measure. ---

TEST(SinrAssessor, SignificantCountsIdenticalBruteVsGrid) {
  // Per-pair contributions are bit-identical across strategies (the grid
  // scatter emits kappa*w^h with the same single rounding the gather
  // uses), so the >= sig comparisons agree pair by pair even though the
  // power sums accumulate in different orders.
  for (const std::uint64_t seed : {7ull, 42ull}) {
    const Nodes nodes = deployment_store(300, seed);
    const SinrAssessor assessor;
    const SinrSummary brute =
        assessor.assess(nodes.points, nodes.radii2,
                        EvalOptions{}.with_strategy(Strategy::kBrute));
    const SinrSummary grid =
        assessor.assess(nodes.points, nodes.radii2,
                        EvalOptions{}.with_strategy(Strategy::kGrid));
    EXPECT_EQ(brute.per_node, grid.per_node);
    EXPECT_EQ(brute.max, grid.max);
    EXPECT_EQ(brute.total, grid.total);
    // The real-valued power agrees up to accumulation order.
    ASSERT_EQ(brute.power.size(), grid.power.size());
    for (std::size_t i = 0; i < brute.power.size(); ++i) {
      EXPECT_NEAR(brute.power[i], grid.power[i],
                  1e-9 * std::abs(brute.power[i]) +
                      std::numeric_limits<double>::min());
    }
  }
}

/// Seeded points with independent radii in [0.05, 1.5) — or 0 for every
/// zero_every-th node when zero_every > 0.
Nodes random_store(const rim::geom::PointSet& points, std::uint64_t seed,
                     std::size_t zero_every = 0) {
  rim::sim::Rng rng(seed);
  std::vector<double> radii2(points.size());
  for (std::size_t v = 0; v < points.size(); ++v) {
    const double r = rng.uniform(0.05, 1.5);
    radii2[v] = zero_every > 0 && v % zero_every == 0 ? 0.0 : r * r;
  }
  return {points, radii2};
}

/// The scatter at every stripe count must reproduce the kGrid power bits
/// (one stripe, SIMD) and the kGrid scalar twin, in both kernel flavours,
/// and kParallel through the public API must match too.
void expect_stripe_invariant(const Nodes& nodes) {
  const SinrAssessor assessor;
  const EvalOptions grid = EvalOptions{}.with_strategy(Strategy::kGrid);
  const SinrSummary reference =
      assessor.assess(nodes.points, nodes.radii2, grid);
  expect_bit_identical(
      reference, assessor.assess_scalar(nodes.points, nodes.radii2, grid));
  expect_bit_identical(
      reference,
      assessor.assess(nodes.points, nodes.radii2,
                      EvalOptions{}.with_strategy(Strategy::kParallel)));
  expect_bit_identical(
      reference,
      assessor.assess_scalar(nodes.points, nodes.radii2,
                             EvalOptions{}.with_strategy(Strategy::kParallel)));
  for (const std::size_t stripes : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(testing::Message() << "stripes " << stripes);
    for (const bool scalar : {false, true}) {
      expect_bit_identical(reference,
                           rim::core::detail::scatter_striped(
                               nodes.points, nodes.radii2, SinrOptions{},
                               stripes, scalar));
    }
  }
}

TEST(SinrAssessor, ParallelStrategyMatchesGrid) {
  for (const std::uint64_t seed : {11ull, 12ull, 97ull}) {
    expect_stripe_invariant(deployment_store(300, seed));
  }
  // Independent radii reach across several stripes at once.
  expect_stripe_invariant(random_store(
      rim::sim::RandomDeployment(
          rim::sim::RandomDeployment::Params{}.with_nodes(257).with_side(4.0),
          5)
          .generate(),
      6));
}

TEST(SinrAssessor, StripedScatterBitIdenticalWithAllNodesOnOneX) {
  // Every cut point is the same x: all receivers share one stripe and the
  // other stripes stay empty.
  rim::sim::Rng rng(21);
  rim::geom::PointSet points;
  for (int i = 0; i < 120; ++i) points.push_back({1.5, rng.uniform(0.0, 8.0)});
  expect_stripe_invariant(random_store(points, 22));
}

TEST(SinrAssessor, StripedScatterBitIdenticalWithCoincidentNodes) {
  rim::geom::PointSet points =
      rim::sim::RandomDeployment(
          rim::sim::RandomDeployment::Params{}.with_nodes(150).with_side(3.0),
          23)
          .generate();
  for (std::size_t v = 0; v < 150; v += 3) points.push_back(points[v]);
  expect_stripe_invariant(random_store(points, 24));
}

TEST(SinrAssessor, StripedScatterBitIdenticalWithZeroRadiusNodes) {
  expect_stripe_invariant(random_store(
      rim::sim::RandomDeployment(
          rim::sim::RandomDeployment::Params{}.with_nodes(200).with_side(3.0),
          25)
          .generate(),
      26, /*zero_every=*/3));
}

TEST(SinrAssessor, StripedScatterBitIdenticalWithFewerNodesThanStripes) {
  for (const std::size_t n : {1u, 2u, 3u, 5u}) {
    rim::geom::PointSet points;
    for (std::size_t v = 0; v < n; ++v) {
      points.push_back({0.3 * static_cast<double>(v), 0.1});
    }
    expect_stripe_invariant(random_store(points, 27 + n));
  }
}

// --- Inputs that make the stripe index double its cell (kMaxCells). ---

/// The scatter on an index whose cell the cap has coarsened: stripe/twin
/// bit-identity, and significant counts equal to the kBrute gather's.
void expect_capped_grid_exact(const Nodes& nodes) {
  expect_stripe_invariant(nodes);
  const SinrAssessor assessor;
  const SinrSummary brute = assessor.assess(
      nodes.points, nodes.radii2, EvalOptions{}.with_strategy(Strategy::kBrute));
  const SinrSummary grid = assessor.assess(
      nodes.points, nodes.radii2, EvalOptions{}.with_strategy(Strategy::kGrid));
  EXPECT_EQ(brute.per_node, grid.per_node);
  for (const std::size_t stripes : {1u, 2u, 3u, 8u}) {
    EXPECT_EQ(brute.per_node,
              rim::core::detail::scatter_striped(nodes.points, nodes.radii2,
                                                 SinrOptions{}, stripes, false)
                  .per_node)
        << "stripes " << stripes;
  }
}

TEST(SinrAssessor, CappedGridExactOnExponentialChain) {
  // The Fig. 7 chain: gaps 2^0 .. 2^(n-2) in [0, 1]. With NNF radii the
  // median cutoff radius is far below the span / (16 n) a capped grid
  // allows, so every stripe index over the chain's wide end doubles its
  // cell. Independent radii put the whole chain in one cell instead.
  const rim::geom::PointSet points =
      rim::highway::exponential_chain(48).to_points();
  const rim::graph::Graph forest = rim::topology::nearest_neighbor_forest(points);
  expect_capped_grid_exact(
      Nodes{points, rim::core::transmission_radii_squared(forest, points)});
  expect_capped_grid_exact(random_store(points, 31));
}

TEST(SinrAssessor, CappedGridExactOnTwoFarApartClusters) {
  // Two clusters 10^6 apart: a stripe index holding both (every one under
  // kGrid) is mostly empty box, and its capped cell spans a whole cluster.
  rim::sim::Rng rng(33);
  rim::geom::PointSet points;
  for (int i = 0; i < 90; ++i) {
    const double ox = i % 2 == 0 ? 0.0 : 1e6;
    points.push_back({ox + rng.uniform(0.0, 3.0), ox + rng.uniform(0.0, 3.0)});
  }
  const rim::graph::Graph forest = rim::topology::nearest_neighbor_forest(points);
  expect_capped_grid_exact(
      Nodes{points, rim::core::transmission_radii_squared(forest, points)});
  expect_capped_grid_exact(random_store(points, 34));
}

// --- Model plumbing through the Assessor facade. ---

TEST(SinrAssessor, AssessorModelSinrProjectsSignificantCounts) {
  const rim::geom::PointSet points = deployment_points(150, 13);
  const rim::graph::Graph forest = rim::topology::nearest_neighbor_forest(points);
  const rim::core::InterferenceSummary via_assessor = rim::core::Assessor{}.assess(
      forest, points,
      EvalOptions{}.with_strategy(Strategy::kGrid).with_model(Model::kSinr));
  const Nodes nodes = deployment_store(150, 13);
  const SinrSummary direct = SinrAssessor{}.assess(nodes.points, nodes.radii2);
  EXPECT_EQ(via_assessor.per_node, direct.per_node);
  EXPECT_EQ(via_assessor.max, direct.max);
}

TEST(SinrAssessor, TopologyOverloadMatchesRadiiPath) {
  const rim::geom::PointSet points =
      rim::sim::RandomDeployment(
          rim::sim::RandomDeployment::Params{}.with_nodes(120).with_side(3.0),
          21)
          .generate();
  const rim::graph::Graph forest = rim::topology::nearest_neighbor_forest(points);
  const std::vector<double> radii2 =
      rim::core::transmission_radii_squared(forest, points);
  const SinrAssessor assessor;
  expect_bit_identical(assessor.assess(forest, points),
                       assessor.assess(points, radii2));
}

// --- Kernel edge cases (simd:: layer, scalar twin as the oracle). ---

struct KernelCase {
  std::vector<double> xs, ys, ws;
};

void expect_kernels_agree(const KernelCase& c, double cx, double cy,
                          double cutoff_factor, double kappa, int half_alpha,
                          double sig) {
  const auto simd = rim::simd::sinr_gather(c.xs.data(), c.ys.data(),
                                           c.ws.data(), c.xs.size(), cx, cy,
                                           cutoff_factor, kappa, half_alpha, sig);
  const auto scalar = rim::simd::sinr_gather_scalar(
      c.xs.data(), c.ys.data(), c.ws.data(), c.xs.size(), cx, cy,
      cutoff_factor, kappa, half_alpha, sig);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(simd.power),
            std::bit_cast<std::uint64_t>(scalar.power));
  EXPECT_EQ(simd.significant, scalar.significant);
}

TEST(SinrKernels, CoincidentNodesAreExcluded) {
  // Three transmitters exactly on the receiver (d2 == 0) and one real one:
  // the coincident lanes must contribute nothing, not inf/NaN.
  const KernelCase c{{5.0, 5.0, 5.0, 6.0}, {5.0, 5.0, 5.0, 5.0},
                     {1.0, 1.0, 1.0, 1.0}};
  const auto acc = rim::simd::sinr_gather_scalar(
      c.xs.data(), c.ys.data(), c.ws.data(), 4, 5.0, 5.0,
      /*cutoff_factor=*/100.0, /*kappa=*/1.0, /*half_alpha=*/2, /*sig=*/0.0);
  EXPECT_TRUE(std::isfinite(acc.power));
  EXPECT_EQ(acc.power, 1.0);  // kappa * 1^2 / 1^2 from the node at distance 1
  EXPECT_EQ(acc.significant, 1u);
  expect_kernels_agree(c, 5.0, 5.0, 100.0, 1.0, 2, 0.0);
}

TEST(SinrKernels, RadiusZeroNodesDoNotTransmit) {
  const KernelCase c{{1.0, 2.0}, {0.0, 0.0}, {0.0, 1.0}};
  const auto acc = rim::simd::sinr_gather_scalar(
      c.xs.data(), c.ys.data(), c.ws.data(), 2, 0.0, 0.0, 100.0, 1.0, 2, 0.0);
  // Only the w=1 node at distance 2 contributes: 1 * 1^2 / (4^2).
  EXPECT_EQ(acc.power, 1.0 / 16.0);
  EXPECT_EQ(acc.significant, 1u);
  expect_kernels_agree(c, 0.0, 0.0, 100.0, 1.0, 2, 0.0);
}

TEST(SinrKernels, CutoffBoundaryIsInclusive) {
  // w = 1, cutoff_factor = 4 => eligible iff d2 <= 4. One node exactly on
  // the boundary (d2 == 4), one just past it.
  const double beyond = std::nextafter(2.0, 3.0);
  const KernelCase c{{2.0, beyond}, {0.0, 0.0}, {1.0, 1.0}};
  const auto acc = rim::simd::sinr_gather_scalar(
      c.xs.data(), c.ys.data(), c.ws.data(), 2, 0.0, 0.0,
      /*cutoff_factor=*/4.0, 1.0, /*half_alpha=*/1, 0.0);
  EXPECT_EQ(acc.power, 1.0 / 4.0);  // boundary node only
  EXPECT_EQ(acc.significant, 1u);
  expect_kernels_agree(c, 0.0, 0.0, 4.0, 1.0, 1, 0.0);
}

TEST(SinrKernels, DenormalDistancesStayDeterministic) {
  // d = 1e-160 => d2 ~ 1e-320 (denormal); d2^2 underflows to zero and the
  // contribution overflows to +inf. Both twins must agree bit-for-bit on
  // that outcome — determinism, not finiteness, is the contract here.
  const KernelCase c{{1e-160, 0.25, -0.25}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}};
  const auto scalar = rim::simd::sinr_gather_scalar(
      c.xs.data(), c.ys.data(), c.ws.data(), 3, 0.0, 0.0, 1e300, 1.0, 2, 0.0);
  EXPECT_TRUE(std::isinf(scalar.power));
  EXPECT_EQ(scalar.significant, 3u);
  expect_kernels_agree(c, 0.0, 0.0, 1e300, 1.0, 2, 0.0);
}

TEST(SinrKernels, ScatterMatchesScalarOnBoundaryAndDenormals) {
  const std::vector<double> xs{2.0, std::nextafter(2.0, 3.0), 1e-160, 0.0, 3.0};
  const std::vector<double> ys{0.0, 0.0, 0.0, 0.0, 4.0};
  std::vector<double> out_simd(xs.size(), -1.0);
  std::vector<double> out_scalar(xs.size(), -1.0);
  rim::simd::sinr_scatter(xs.data(), ys.data(), xs.size(), 0.0, 0.0,
                          /*cutoff2=*/25.0, /*power=*/3.0, /*half_alpha=*/2,
                          out_simd.data());
  rim::simd::sinr_scatter_scalar(xs.data(), ys.data(), xs.size(), 0.0, 0.0,
                                 25.0, 3.0, 2, out_scalar.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out_simd[i]),
              std::bit_cast<std::uint64_t>(out_scalar[i]))
        << "lane " << i;
  }
  EXPECT_EQ(out_scalar[3], 0.0);  // the receiver's own lane (d2 == 0)
  EXPECT_EQ(out_scalar[0], 3.0 / 16.0);
  EXPECT_EQ(out_scalar[4], 3.0 / 625.0);  // d2 = 25 exactly: inclusive
}

// --- Degenerate stores through the assessor. ---

TEST(SinrAssessor, EmptyAndSingletonStores) {
  const SinrAssessor assessor;
  const Nodes none;
  const SinrSummary empty = assessor.assess(none.points, none.radii2);
  EXPECT_EQ(empty.max, 0u);
  EXPECT_EQ(empty.total, 0u);
  EXPECT_EQ(empty.power.size(), 0u);

  const Nodes one{{{1.0, 1.0}}, {4.0}};
  const SinrSummary single = assessor.assess(one.points, one.radii2);
  EXPECT_EQ(single.max, 0u);
  EXPECT_EQ(single.power[0], 0.0);
  expect_bit_identical(single, assessor.assess_scalar(one.points, one.radii2));
}

TEST(SinrAssessor, AllCoincidentNodes) {
  // Every pair has d2 == 0: nothing is eligible under either strategy.
  const Nodes nodes{rim::geom::PointSet(8, {2.0, 3.0}),
                    std::vector<double>(8, 1.0)};
  const SinrAssessor assessor;
  for (const Strategy strategy : {Strategy::kBrute, Strategy::kGrid}) {
    const SinrSummary s = assessor.assess(
        nodes.points, nodes.radii2, EvalOptions{}.with_strategy(strategy));
    EXPECT_EQ(s.max, 0u);
    EXPECT_EQ(s.max_power, 0.0);
    EXPECT_EQ(s.total, 0u);
  }
}

}  // namespace
