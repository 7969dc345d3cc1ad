#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "rim/geom/aabb.hpp"
#include "rim/geom/disk.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/sim/generators.hpp"
#include "rim/sim/rng.hpp"

namespace rim::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(a / 2.0, (Vec2{0.5, 1.0}));
}

TEST(Vec2, DotAndCross) {
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(cross({1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(cross({0, 1}, {1, 0}), -1.0);
  EXPECT_DOUBLE_EQ(cross({2, 3}, {4, 6}), 0.0);  // collinear
}

TEST(Vec2, DistanceIsSymmetricAndNonNegative) {
  const Vec2 a{0.3, 0.7};
  const Vec2 b{-1.2, 4.5};
  EXPECT_DOUBLE_EQ(dist(a, b), dist(b, a));
  EXPECT_GE(dist(a, b), 0.0);
  EXPECT_DOUBLE_EQ(dist(a, a), 0.0);
}

TEST(Vec2, Dist2MatchesDistSquared) {
  const Vec2 a{1.0, 1.0};
  const Vec2 b{4.0, 5.0};
  EXPECT_DOUBLE_EQ(dist2(a, b), 25.0);
  EXPECT_DOUBLE_EQ(dist(a, b), 5.0);
}

TEST(Vec2, LexicographicOrder) {
  EXPECT_LT((Vec2{0, 5}), (Vec2{1, 0}));
  EXPECT_LT((Vec2{1, 0}), (Vec2{1, 1}));
  EXPECT_FALSE((Vec2{1, 1}) < (Vec2{1, 1}));
}

TEST(Vec2, Midpoint) {
  EXPECT_EQ(midpoint({0, 0}, {2, 4}), (Vec2{1, 2}));
}

TEST(Vec2, IsOneDimensional) {
  EXPECT_TRUE(is_one_dimensional({{0, 0}, {1, 0}, {-3, 0}}));
  EXPECT_FALSE(is_one_dimensional({{0, 0}, {1, 1e-9}}));
  EXPECT_TRUE(is_one_dimensional({}));
}

TEST(Disk, ContainsIsClosed) {
  const Disk d{{0, 0}, 1.0};
  EXPECT_TRUE(d.contains({1.0, 0.0}));  // boundary counts
  EXPECT_TRUE(d.contains({0.0, 0.0}));
  EXPECT_FALSE(d.contains({1.0 + 1e-12, 0.0}));
}

TEST(Disk, Intersects) {
  const Disk a{{0, 0}, 1.0};
  EXPECT_TRUE(a.intersects(Disk{{2, 0}, 1.0}));   // tangent
  EXPECT_FALSE(a.intersects(Disk{{2.1, 0}, 1.0}));
  EXPECT_TRUE(a.intersects(Disk{{0.1, 0}, 0.1}));  // nested
}

TEST(Disk, DiametralDisk) {
  const Disk d = diametral_disk({0, 0}, {2, 0});
  EXPECT_EQ(d.center, (Vec2{1, 0}));
  EXPECT_DOUBLE_EQ(d.radius, 1.0);
  EXPECT_TRUE(d.contains({1, 1}));   // top of the circle
  EXPECT_FALSE(d.contains({1, 1.001}));
}

TEST(Aabb, ExpandAndContains) {
  Aabb box{{0, 0}, {0, 0}};
  box.expand({2, -1});
  box.expand({-1, 3});
  EXPECT_TRUE(box.contains({0, 0}));
  EXPECT_TRUE(box.contains({2, 3}));
  EXPECT_FALSE(box.contains({2.1, 0}));
  EXPECT_DOUBLE_EQ(box.width(), 3.0);
  EXPECT_DOUBLE_EQ(box.height(), 4.0);
}

TEST(Aabb, Dist2ToOutsidePoint) {
  const Aabb box{{0, 0}, {1, 1}};
  EXPECT_DOUBLE_EQ(box.dist2_to({0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(box.dist2_to({2.0, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(box.dist2_to({2.0, 2.0}), 2.0);
}

TEST(Aabb, BoundingBoxOfPoints) {
  const PointSet points{{1, 2}, {-1, 5}, {3, 0}};
  const Aabb box = bounding_box(points);
  EXPECT_EQ(box.lo, (Vec2{-1, 0}));
  EXPECT_EQ(box.hi, (Vec2{3, 5}));
}

class GridIndexTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridIndexTest, DiskQueryMatchesBruteForce) {
  const PointSet points = sim::uniform_square(200, 5.0, GetParam());
  const GridIndex index(points, 0.7);
  for (double radius : {0.0, 0.3, 1.0, 2.5}) {
    for (NodeId probe = 0; probe < 10; ++probe) {
      const auto got = index.query_disk(points[probe], radius);
      std::vector<NodeId> expected;
      for (NodeId v = 0; v < points.size(); ++v) {
        if (dist2(points[v], points[probe]) <= radius * radius) {
          expected.push_back(v);
        }
      }
      EXPECT_EQ(got, expected) << "radius " << radius << " probe " << probe;
    }
  }
}

TEST_P(GridIndexTest, CountMatchesQuerySize) {
  const PointSet points = sim::uniform_square(150, 3.0, GetParam());
  const GridIndex index(points, 0.5);
  for (NodeId probe = 0; probe < 8; ++probe) {
    EXPECT_EQ(index.count_in_disk(points[probe], 0.8),
              index.query_disk(points[probe], 0.8).size());
  }
}

TEST_P(GridIndexTest, NearestMatchesBruteForce) {
  const PointSet points = sim::uniform_square(120, 4.0, GetParam());
  const GridIndex index(points, 0.6);
  for (NodeId probe = 0; probe < points.size(); probe += 7) {
    const NodeId got = index.nearest(points[probe], probe);
    NodeId expected = kInvalidNode;
    double best = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < points.size(); ++v) {
      if (v == probe) continue;
      const double d2 = dist2(points[v], points[probe]);
      if (d2 < best || (d2 == best && v < expected)) {
        best = d2;
        expected = v;
      }
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(GridIndex, EmptyIndex) {
  const PointSet points;
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.nearest({0, 0}), kInvalidNode);
  EXPECT_TRUE(index.query_disk({0, 0}, 10.0).empty());
}

TEST(GridIndex, SinglePoint) {
  const PointSet points{{1, 1}};
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.nearest({0, 0}), 0u);
  EXPECT_EQ(index.nearest({0, 0}, 0), kInvalidNode);  // excluded
}

TEST(GridIndex, NegativeRadiusFindsNothing) {
  const PointSet points{{0, 0}};
  const GridIndex index(points, 1.0);
  EXPECT_TRUE(index.query_disk({0, 0}, -1.0).empty());
}

TEST(GridIndex, HandlesExtremeAspectRatios) {
  // Exponential-chain-like spread: the cell cap must kick in, not OOM.
  PointSet points;
  double x = 0.0;
  for (int i = 0; i < 40; ++i) {
    points.push_back({x, 0.0});
    x = x * 2.0 + 1.0;
  }
  const GridIndex index(points, 1e-6);
  EXPECT_EQ(index.query_disk({0.0, 0.0}, 1.5).size(), 2u);  // x=0 and x=1
  EXPECT_EQ(index.nearest({0.4, 0.0}), 0u);
}

// --- GridIndex property test: every query against brute force. ---
//
// The index's documented layout fixes its visit order: cells are squares of
// side cell_size() anchored at the bounding box's low corner, numbered
// row-major, points clamped into the grid, and ids ascending within a cell.
// The reference below rebuilds that order from the points alone.

/// Row-major cell number of \p p in the grid \p index documents over
/// \p points.
std::int64_t reference_cell(const PointSet& points, const GridIndex& index,
                            Vec2 p) {
  const Aabb box = bounding_box(points);
  const double cell = index.cell_size();
  const auto cells_along = [cell](double extent) {
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::floor(extent / cell)) + 1);
  };
  const std::int64_t nx = cells_along(box.width());
  const std::int64_t ny = cells_along(box.height());
  const auto coord = [cell](double offset, std::int64_t n) {
    return std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::floor(offset / cell)), 0, n - 1);
  };
  return coord(p.y - box.lo.y, ny) * nx + coord(p.x - box.lo.x, nx);
}

/// The points of the closed disk dist2 <= radius2, ordered by
/// (row-major cell, id).
std::vector<NodeId> reference_visits(const PointSet& points,
                                     const GridIndex& index, Vec2 center,
                                     double radius2) {
  std::vector<NodeId> hits;
  for (NodeId v = 0; v < points.size(); ++v) {
    if (dist2(points[v], center) <= radius2) hits.push_back(v);
  }
  std::stable_sort(hits.begin(), hits.end(), [&](NodeId a, NodeId b) {
    return reference_cell(points, index, points[a]) <
           reference_cell(points, index, points[b]);
  });
  return hits;
}

/// Brute-force nearest: smallest d2 over ids other than \p exclude, ties
/// toward the smaller id.
NodeId reference_nearest(const PointSet& points, Vec2 center, NodeId exclude) {
  NodeId best = kInvalidNode;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < points.size(); ++v) {
    if (v == exclude) continue;
    const double d2 = dist2(points[v], center);
    if (d2 < best_d2 || (d2 == best_d2 && v < best)) {
      best_d2 = d2;
      best = v;
    }
  }
  return best;
}

/// Check the visit sequences of both disk forms and nearest() at the
/// given centres and radii, on one index over \p points.
void expect_index_matches_brute(const PointSet& points, double cell,
                                const std::vector<Vec2>& centers,
                                const std::vector<double>& radii) {
  const GridIndex index(points, cell);
  ASSERT_EQ(index.size(), points.size());
  for (const Vec2 c : centers) {
    for (const double r : radii) {
      SCOPED_TRACE(testing::Message() << "center (" << c.x << ", " << c.y
                                      << ") radius " << r);
      const std::vector<NodeId> expected =
          reference_visits(points, index, c, r * r);
      std::vector<NodeId> squared;
      index.for_each_in_disk_squared(c, r * r,
                                     [&](NodeId id) { squared.push_back(id); });
      EXPECT_EQ(squared, expected);
      std::vector<NodeId> linear;
      index.for_each_in_disk(c, r, [&](NodeId id) { linear.push_back(id); });
      EXPECT_EQ(linear, expected);
    }
    EXPECT_EQ(index.nearest(c), reference_nearest(points, c, kInvalidNode));
  }
  for (NodeId v = 0; v < points.size(); ++v) {
    EXPECT_EQ(index.nearest(points[v], v),
              reference_nearest(points, points[v], v))
        << "exclude " << v;
  }
}

/// Centres at some of the points, plus seeded centres in and well outside
/// the points' bounding box.
std::vector<Vec2> probe_centers(const PointSet& points, std::uint64_t seed) {
  std::vector<Vec2> centers;
  for (std::size_t v = 0; v < points.size(); v += 1 + points.size() / 8) {
    centers.push_back(points[v]);
  }
  const Aabb box = bounding_box(points);
  const double pad = 2.0 + box.width() + box.height();
  sim::Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    centers.push_back({rng.uniform(box.lo.x - pad, box.hi.x + pad),
                       rng.uniform(box.lo.y - pad, box.hi.y + pad)});
  }
  centers.push_back({box.lo.x - pad, box.lo.y - pad});
  centers.push_back({box.hi.x + pad, box.lo.y + 0.5 * box.height()});
  return centers;
}

const std::vector<double> kProbeRadii = {0.0, 0.2, 0.7, 2.5, 1e3};

TEST_P(GridIndexTest, VisitSequenceAndNearestMatchBruteOnUniform) {
  const PointSet points = sim::uniform_square(250, 5.0, GetParam());
  for (const double cell : {0.3, 0.7, 2.0}) {
    SCOPED_TRACE(testing::Message() << "cell " << cell);
    expect_index_matches_brute(points, cell, probe_centers(points, GetParam()),
                               kProbeRadii);
  }
}

TEST_P(GridIndexTest, VisitSequenceAndNearestMatchBruteOnClusteredDuplicates) {
  PointSet points = sim::gaussian_clusters(150, 3, 4.0, 0.2, GetParam());
  // Every third point twice more: exact duplicates tie in nearest() and
  // share cells.
  const std::size_t base = points.size();
  for (std::size_t v = 0; v < base; v += 3) {
    points.push_back(points[v]);
    points.push_back(points[v]);
  }
  expect_index_matches_brute(points, 0.25, probe_centers(points, GetParam()),
                             kProbeRadii);
}

TEST_P(GridIndexTest, VisitSequenceAndNearestMatchBruteOnCollinearPoints) {
  sim::Rng rng(GetParam());
  PointSet horizontal;  // zero-height box: one cell row
  PointSet diagonal;
  for (int i = 0; i < 120; ++i) {
    const double t = rng.uniform(0.0, 10.0);
    horizontal.push_back({t, 1.5});
    diagonal.push_back({t, 0.5 * t - 2.0});
  }
  // A repeated position on each line.
  horizontal.push_back(horizontal.front());
  diagonal.push_back(diagonal.back());
  expect_index_matches_brute(horizontal, 0.4,
                             probe_centers(horizontal, GetParam()),
                             kProbeRadii);
  expect_index_matches_brute(diagonal, 0.4, probe_centers(diagonal, GetParam()),
                             kProbeRadii);
}

TEST(GridIndex, VisitSequenceAndNearestMatchBruteOnASinglePoint) {
  const PointSet points{{2.0, -1.0}};
  expect_index_matches_brute(points, 0.5,
                             {{2.0, -1.0}, {0.0, 0.0}, {50.0, 50.0}},
                             kProbeRadii);
}

TEST(GridIndex, ExponentialChainDoublesTheCellAndStaysExact) {
  // The Fig. 7 chain: gaps 2^0 .. 2^(n-2) scaled into [0, 1]. A cell the
  // size of the smallest gap would need ~2^41 cells, so the index doubles
  // it past the kMaxCells cap; queries must stay exact.
  const PointSet points = highway::exponential_chain(42).to_points();
  const double smallest_gap = points[1].x - points[0].x;
  const GridIndex index(points, smallest_gap);
  EXPECT_GT(index.cell_size(), smallest_gap);
  std::vector<Vec2> centers = probe_centers(points, 5);
  for (std::size_t v = 0; v < points.size(); v += 5) {
    centers.push_back(points[v]);
  }
  expect_index_matches_brute(points, smallest_gap, centers,
                             {0.0, smallest_gap, 1e-6, 1e-3, 0.3, 5.0});
}

}  // namespace
}  // namespace rim::geom
