#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rim/geom/dynamic_grid.hpp"
#include "rim/geom/grid_kernels.hpp"
#include "rim/sim/rng.hpp"
#include "rim/simd/simd.hpp"

/// SIMD-vs-scalar bit-identity. The kernels count integer outcomes of the
/// exact predicate d2 <= r2 with d2 = dx*dx + dy*dy in two roundings, so
/// the vector backends must agree with the scalar references *exactly* —
/// on random inputs, on denormals, and on radii constructed to sit exactly
/// on the containment boundary.

namespace rim {
namespace {

using geom::DynamicGrid;
using geom::Vec2;
using simd::CoverageCounts;

struct Columns {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> ws;
};

Columns random_columns(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  Columns c;
  c.xs.reserve(n);
  c.ys.reserve(n);
  c.ws.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.xs.push_back(rng.uniform(-5.0, 5.0));
    c.ys.push_back(rng.uniform(-5.0, 5.0));
    // Mix of non-transmitting (w = 0), small, and large disks.
    const double coin = rng.next_double();
    c.ws.push_back(coin < 0.25 ? 0.0 : rng.uniform(0.0, 9.0));
  }
  return c;
}

void expect_identical(const Columns& c, double cx, double cy,
                      double query_r2) {
  const CoverageCounts simd_counts = simd::count_coverage(
      c.xs.data(), c.ys.data(), c.ws.data(), c.xs.size(), cx, cy, query_r2);
  const CoverageCounts scalar_counts = simd::count_coverage_scalar(
      c.xs.data(), c.ys.data(), c.ws.data(), c.xs.size(), cx, cy, query_r2);
  EXPECT_EQ(simd_counts.visited, scalar_counts.visited);
  EXPECT_EQ(simd_counts.covered, scalar_counts.covered);
}

TEST(Simd, BackendIsDeclared) {
  EXPECT_TRUE(simd::kBackend == "sse2" || simd::kBackend == "neon" ||
              simd::kBackend == "scalar");
  EXPECT_EQ(simd::kHaveSimd, simd::kBackend != "scalar");
}

TEST(Simd, CountCoverageMatchesScalarOnRandomColumns) {
  // Odd and even sizes: the width-2 backends take different tail paths.
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 129u, 1000u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Columns c = random_columns(n, seed * 1000 + n);
      sim::Rng rng(seed);
      expect_identical(c, rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                       rng.uniform(0.0, 16.0));
      expect_identical(c, 0.0, 0.0,
                       std::numeric_limits<double>::infinity());
    }
  }
}

TEST(Simd, CountCoverageMatchesScalarOnDenormals) {
  // Coordinates and weights in the denormal range: d2 underflows to
  // denormal or zero; both kernels must land on identical bits.
  const double dmin = std::numeric_limits<double>::denorm_min();
  Columns c;
  c.xs = {0.0, dmin, -dmin, 2 * dmin, 1e-160, -1e-160, dmin};
  c.ys = {dmin, 0.0, dmin, -2 * dmin, 1e-160, 1e-160, -dmin};
  c.ws = {dmin, 0.0, 4 * dmin, dmin, 1e-320, 8e-320, 2 * dmin};
  expect_identical(c, 0.0, 0.0, 1.0);
  expect_identical(c, dmin, -dmin, 16 * dmin);
  expect_identical(c, 0.0, 0.0, 0.0);
}

TEST(Simd, CountCoverageMatchesScalarOnExactBoundaryRadii) {
  // Construct weights exactly equal to the computed d2 of each point from
  // the query center: containment is decided by d2 <= w with equality.
  const double cx = 0.125;
  const double cy = -0.25;
  Columns c = random_columns(257, 42);
  std::vector<double> d2(c.xs.size());
  simd::squared_distances_scalar(c.xs.data(), c.ys.data(), c.xs.size(), cx,
                                 cy, d2.data());
  for (std::size_t i = 0; i < c.xs.size(); ++i) {
    if (i % 3 == 0) c.ws[i] = d2[i];                    // exactly on boundary
    if (i % 3 == 1) c.ws[i] = std::nextafter(d2[i], 0.0);  // one ulp inside
  }
  expect_identical(c, cx, cy, std::numeric_limits<double>::infinity());
  // The boundary weights must actually count as covered (closed disk).
  const CoverageCounts counts = simd::count_coverage(
      c.xs.data(), c.ys.data(), c.ws.data(), c.xs.size(), cx, cy,
      std::numeric_limits<double>::infinity());
  std::uint64_t expected_covered = 0;
  for (std::size_t i = 0; i < c.xs.size(); ++i) {
    if (c.ws[i] > 0.0 && d2[i] <= c.ws[i]) ++expected_covered;
  }
  EXPECT_EQ(counts.covered, expected_covered);
}

TEST(Simd, CountCoverageTreatsNaNAsOutside) {
  Columns c;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  c.xs = {nan, 0.0, 1.0};
  c.ys = {0.0, nan, 1.0};
  c.ws = {1.0, 1.0, nan};
  expect_identical(c, 0.0, 0.0, 100.0);
  const CoverageCounts counts = simd::count_coverage(
      c.xs.data(), c.ys.data(), c.ws.data(), c.xs.size(), 0.0, 0.0, 100.0);
  // NaN coordinates fail every <=; a NaN weight fails d2 <= w.
  EXPECT_EQ(counts.visited, 1u);
  EXPECT_EQ(counts.covered, 0u);
}

TEST(Simd, SquaredDistancesBitIdenticalToScalar) {
  const Columns c = random_columns(513, 7);
  std::vector<double> vec_out(c.xs.size());
  std::vector<double> scalar_out(c.xs.size());
  simd::squared_distances(c.xs.data(), c.ys.data(), c.xs.size(), 1.5, -2.5,
                          vec_out.data());
  simd::squared_distances_scalar(c.xs.data(), c.ys.data(), c.xs.size(), 1.5,
                                 -2.5, scalar_out.data());
  // Byte compare: identical rounding, not just approximate equality.
  EXPECT_EQ(0, std::memcmp(vec_out.data(), scalar_out.data(),
                           vec_out.size() * sizeof(double)));
}

TEST(Simd, IncrementWithinMatchesScalarIncludingBoundaryLanes) {
  const Columns c = random_columns(513, 9);  // odd n => scalar tail
  const double cx = 0.25;
  const double cy = -1.0;
  for (const std::size_t pick : {0u, 1u, 100u, 511u, 512u}) {
    // A radius exactly at one lane's d2 (closed test: counted), and the
    // next representable value below it (not counted).
    const double exact = simd::detail::squared_distance(c.xs[pick], c.ys[pick],
                                                        cx, cy);
    for (const double r2 : {exact, std::nextafter(exact, 0.0), 2.0, 0.0}) {
      std::vector<std::uint32_t> vec(c.xs.size(), 7);
      std::vector<std::uint32_t> ref(c.xs.size(), 7);
      simd::increment_within(c.xs.data(), c.ys.data(), c.xs.size(), cx, cy,
                             r2, vec.data());
      simd::increment_within_scalar(c.xs.data(), c.ys.data(), c.xs.size(), cx,
                                    cy, r2, ref.data());
      EXPECT_EQ(vec, ref) << "r2 " << r2;
      EXPECT_EQ(ref[pick], r2 == exact ? 8u : 7u);
    }
  }
}

TEST(Simd, SinrFoldBitIdenticalToScalar) {
  sim::Rng rng(15);
  const std::size_t n = 301;
  std::vector<double> contrib(n);
  std::vector<bool> ineligible(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double coin = rng.next_double();
    ineligible[i] = coin < 0.3;
    // Ineligible lanes (+0.0), ordinary terms, terms exactly at the
    // significance threshold, and the overflow/NaN lanes of the kernels.
    contrib[i] = coin < 0.3   ? 0.0
                 : coin < 0.4 ? 1e-3
                 : coin < 0.45 ? std::numeric_limits<double>::infinity()
                 : coin < 0.48 ? std::numeric_limits<double>::quiet_NaN()
                               : rng.uniform(0.0, 2e-3);
  }
  std::vector<double> vec_power(n, 0.0);
  std::vector<double> ref_power(n, 0.0);
  std::vector<std::uint32_t> vec_sig(n, 0);
  std::vector<std::uint32_t> ref_sig(n, 0);
  for (int round = 0; round < 3; ++round) {
    simd::sinr_fold(contrib.data(), n, 1e-3, vec_power.data(), vec_sig.data());
    simd::sinr_fold_scalar(contrib.data(), n, 1e-3, ref_power.data(),
                           ref_sig.data());
  }
  EXPECT_EQ(0, std::memcmp(vec_power.data(), ref_power.data(),
                           n * sizeof(double)));
  EXPECT_EQ(vec_sig, ref_sig);
  for (std::size_t i = 0; i < n; ++i) {
    // +0.0 lanes leave the +0.0 start untouched, bit for bit.
    if (ineligible[i]) {
      EXPECT_EQ(std::fpclassify(ref_power[i]), FP_ZERO);
      EXPECT_FALSE(std::signbit(ref_power[i]));
      EXPECT_EQ(ref_sig[i], 0u);
    }
  }
  // sig <= 0 still counts only nonzero lanes.
  std::vector<double> scratch(n, 0.0);
  std::vector<std::uint32_t> vec_all(n, 0);
  std::vector<std::uint32_t> ref_all(n, 0);
  simd::sinr_fold(contrib.data(), n, 0.0, scratch.data(), vec_all.data());
  simd::sinr_fold_scalar(contrib.data(), n, 0.0, scratch.data(),
                         ref_all.data());
  EXPECT_EQ(vec_all, ref_all);
  for (std::size_t i = 0; i < n; ++i) {
    if (ineligible[i]) {
      EXPECT_EQ(ref_all[i], 0u);
    }
  }
}

TEST(GridKernels, CountCoveringMatchesScalarTwin) {
  sim::Rng rng(11);
  DynamicGrid grid(0.7);
  const std::size_t n = 400;
  double max_w = 0.0;
  std::vector<Vec2> points;
  for (NodeId v = 0; v < n; ++v) {
    const Vec2 p{rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)};
    const double w = rng.next_double() < 0.2 ? 0.0 : rng.uniform(0.0, 2.0);
    grid.insert(v, p, w);
    points.push_back(p);
    if (w > max_w) max_w = w;
  }
  for (NodeId v = 0; v < n; v += 17) {
    const geom::CoverageResult fast =
        geom::count_covering(grid, points[v], max_w, v);
    const geom::CoverageResult slow =
        geom::count_covering_scalar(grid, points[v], max_w, v);
    EXPECT_EQ(fast.covered, slow.covered);
    EXPECT_EQ(fast.visited, slow.visited);
    EXPECT_EQ(fast.cells, slow.cells);
  }
}

TEST(GridKernels, ApplyDiskDeltaMatchesScalarTwin) {
  sim::Rng rng(13);
  DynamicGrid grid(0.5);
  const std::size_t n = 300;
  for (NodeId v = 0; v < n; ++v) {
    grid.insert(v, {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)},
                rng.uniform(0.0, 1.5));
  }
  std::vector<std::uint32_t> fast(n, 100);
  std::vector<std::uint32_t> slow(n, 100);
  for (int round = 0; round < 20; ++round) {
    const Vec2 center{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    const double old_r2 = rng.next_double() < 0.3 ? 0.0 : rng.uniform(0.0, 2.0);
    const double new_r2 = rng.next_double() < 0.3 ? 0.0 : rng.uniform(0.0, 2.0);
    const NodeId exclude = static_cast<NodeId>(rng.next_below(n));
    const geom::DeltaResult a = geom::apply_disk_delta(
        grid, center, old_r2, new_r2, exclude, fast.data());
    const geom::DeltaResult b = geom::apply_disk_delta_scalar(
        grid, center, old_r2, new_r2, exclude, slow.data());
    EXPECT_EQ(a.visited, b.visited);
    EXPECT_EQ(a.cells, b.cells);
  }
  EXPECT_EQ(fast, slow);
}

}  // namespace
}  // namespace rim
