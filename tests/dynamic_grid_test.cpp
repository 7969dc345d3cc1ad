#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rim/geom/dynamic_grid.hpp"
#include "rim/geom/grid_kernels.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/sim/rng.hpp"

/// Focused coverage for geom::DynamicGrid under the engine's churn
/// patterns: relabel() (the swap-with-last rename) and repeated
/// insert/erase/move cycles, cross-checked against a naive id->position map;
/// a model-based property test of every query after every step; and
/// build() against one-at-a-time inserts.

namespace rim::geom {
namespace {

std::vector<NodeId> ids_in_disk(const DynamicGrid& grid, Vec2 center,
                                double radius2) {
  std::vector<NodeId> out;
  grid.for_each_in_disk_squared(center, radius2,
                                [&](NodeId id, Vec2) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> ids_in_disk_naive(
    const std::unordered_map<NodeId, Vec2>& reference, Vec2 center,
    double radius2) {
  std::vector<NodeId> out;
  for (const auto& [id, p] : reference) {
    if (dist2(p, center) <= radius2) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DynamicGrid, RelabelMovesIdentityNotPosition) {
  DynamicGrid grid(0.5);
  grid.insert(0, {0.1, 0.1});
  grid.insert(1, {1.0, 1.0});
  grid.insert(2, {2.0, 2.0});

  grid.erase(1);
  grid.relabel(2, 1);  // swap-with-last: 2 takes over id 1

  EXPECT_TRUE(grid.contains(0));
  EXPECT_TRUE(grid.contains(1));
  EXPECT_FALSE(grid.contains(2));
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.position(1), (Vec2{2.0, 2.0}));
  // Queries see the new id at the old position, never the old id.
  EXPECT_EQ(ids_in_disk(grid, {2.0, 2.0}, 0.01), (std::vector<NodeId>{1}));
  EXPECT_EQ(ids_in_disk(grid, {10.0, 10.0}, 1000.0),
            (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(grid.stats().relabels.value(), 1u);
}

TEST(DynamicGrid, RelabelIntoLargerIdGrowsMirrors) {
  // relabel() must also work "upwards" (to > any id seen so far).
  DynamicGrid grid(1.0);
  grid.insert(0, {0.0, 0.0});
  grid.relabel(0, 7);
  EXPECT_FALSE(grid.contains(0));
  EXPECT_TRUE(grid.contains(7));
  EXPECT_EQ(grid.position(7), (Vec2{0.0, 0.0}));
  EXPECT_EQ(grid.nearest({0.5, 0.0}), 7u);
}

/// The engine's removal pattern, repeated: erase a random id, then relabel
/// the current max id into the vacated slot — exactly Scenario's
/// swap-with-last. The grid must stay consistent with a naive reference
/// through hundreds of such renames mixed with inserts and moves.
TEST(DynamicGrid, SwapWithLastChurnStaysConsistent) {
  sim::Rng rng(97);
  DynamicGrid grid(0.4);
  std::unordered_map<NodeId, Vec2> reference;

  std::size_t n = 0;
  const auto insert = [&](Vec2 p) {
    const auto id = static_cast<NodeId>(n++);
    grid.insert(id, p);
    reference[id] = p;
  };
  for (int i = 0; i < 64; ++i) {
    insert({rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)});
  }

  for (int round = 0; round < 600; ++round) {
    const double roll = rng.next_double();
    if (roll < 0.35 || n < 8) {
      insert({rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)});
    } else if (roll < 0.65) {
      // Swap-with-last removal.
      const auto victim = static_cast<NodeId>(rng.next_below(n));
      const auto last = static_cast<NodeId>(n - 1);
      grid.erase(victim);
      reference.erase(victim);
      if (victim != last) {
        grid.relabel(last, victim);
        reference[victim] = reference[last];
        reference.erase(last);
      }
      --n;
    } else {
      const auto id = static_cast<NodeId>(rng.next_below(n));
      const Vec2 p{rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
      grid.move(id, p);
      reference[id] = p;
    }

    ASSERT_EQ(grid.size(), reference.size()) << "round " << round;
    const Vec2 center{rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
    const double radius2 = rng.uniform(0.01, 2.0);
    ASSERT_EQ(ids_in_disk(grid, center, radius2),
              ids_in_disk_naive(reference, center, radius2))
        << "round " << round;
  }
  EXPECT_GT(grid.stats().relabels.value(), 50u);
  EXPECT_GT(grid.stats().erases.value(), 50u);
}

TEST(DynamicGrid, StatsCountersTrackOperations) {
  DynamicGrid grid(1.0);
  grid.insert(0, {0.0, 0.0});
  grid.insert(1, {1.5, 0.0});
  grid.move(0, {0.5, 0.5});
  grid.erase(1);
  (void)ids_in_disk(grid, {0.0, 0.0}, 4.0);
  (void)grid.nearest({1.0, 1.0});
  const auto& stats = grid.stats();
  EXPECT_EQ(stats.inserts.value(), 2u);
  EXPECT_EQ(stats.moves.value(), 1u);
  EXPECT_EQ(stats.erases.value(), 1u);
  EXPECT_GE(stats.disk_queries.value(), 2u);  // nearest() queries disks too
  EXPECT_EQ(stats.nearest_queries.value(), 1u);
  const std::string json = stats.to_json().dump();
  EXPECT_NE(json.find("\"inserts\":2"), std::string::npos) << json;
  // clear() resets the lifetime counters along with the contents.
  grid.clear(1.0);
  EXPECT_EQ(grid.stats().inserts.value(), 0u);
}

/// Brute-force model of a DynamicGrid: id -> (position, weight), plus the
/// grid's own cell-key formula (floor(x / cell) wrapped to 32 bits).
struct Model {
  double cell = 1.0;
  std::map<NodeId, std::pair<Vec2, double>> points;

  using Key = std::pair<std::uint32_t, std::uint32_t>;
  [[nodiscard]] std::uint32_t coord(double x) const {
    return static_cast<std::uint32_t>(
        static_cast<std::int64_t>(std::floor(x / cell)));
  }
  [[nodiscard]] Key key(Vec2 p) const { return {coord(p.x), coord(p.y)}; }
  [[nodiscard]] std::set<Key> keys() const {
    std::set<Key> out;
    for (const auto& [id, pw] : points) out.insert(key(pw.first));
    return out;
  }
};

std::vector<NodeId> model_in_disk(const Model& m, Vec2 center,
                                  double radius2) {
  std::vector<NodeId> out;
  for (const auto& [id, pw] : m.points) {
    if (dist2(pw.first, center) <= radius2) out.push_back(id);
  }
  return out;  // std::map iterates in ascending id order
}

NodeId model_nearest(const Model& m, Vec2 center, NodeId exclude) {
  NodeId best = kInvalidNode;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const auto& [id, pw] : m.points) {
    if (id == exclude) continue;
    const double d2 = dist2(pw.first, center);
    if (d2 < best_d2) {  // ascending ids: the first of equals wins
      best_d2 = d2;
      best = id;
    }
  }
  return best;
}

/// Cells the grid must visit for a disk query: every occupied cell when the
/// ulp-inflated walk rectangle holds more cells than are occupied, else the
/// occupied cells inside the rectangle.
std::size_t model_cells_visited(const Model& m, Vec2 center, double radius2) {
  if (m.points.empty() || radius2 < 0.0) return 0;
  const auto keys = m.keys();
  const double walk = walk_radius(radius2);
  // The grid clamps cell coordinates to +-2^61 so huge walks cannot
  // overflow the cast.
  const auto lo = [&](double x) {
    return static_cast<std::int64_t>(
        std::clamp(std::floor(x / m.cell), -0x1p61, 0x1p61));
  };
  const std::int64_t lox = lo(center.x - walk);
  const std::int64_t hix = lo(center.x + walk);
  const std::int64_t loy = lo(center.y - walk);
  const std::int64_t hiy = lo(center.y + walk);
  if (static_cast<double>(hix - lox + 1) * static_cast<double>(hiy - loy + 1) >
      static_cast<double>(keys.size())) {
    return keys.size();
  }
  std::size_t visited = 0;
  for (std::int64_t cy = loy; cy <= hiy; ++cy) {
    for (std::int64_t cx = lox; cx <= hix; ++cx) {
      visited += keys.count({static_cast<std::uint32_t>(cx),
                             static_cast<std::uint32_t>(cy)});
    }
  }
  return visited;
}

std::size_t model_estimate(const Model& m, double radius) {
  if (m.points.empty() || radius < 0.0) return 0;
  const double across = std::floor(2.0 * radius / m.cell) + 1.0;
  const double occupied = static_cast<double>(m.keys().size());
  const auto count = static_cast<double>(m.points.size());
  if (across * across >= occupied) return m.points.size();
  return static_cast<std::size_t>(
      std::min(across * across * count / occupied, count));
}

/// Every query of \p grid against the model (or, for the kernels, against
/// their scalar twins and the model) at one probe.
void expect_queries_match(const DynamicGrid& grid, const Model& m, Vec2 center,
                          double radius2, NodeId exclude,
                          const std::string& where) {
  SCOPED_TRACE(where);
  std::vector<NodeId> visited;
  const std::size_t cells = grid.for_each_in_disk_squared(
      center, radius2, [&](NodeId id, Vec2) { visited.push_back(id); });
  std::sort(visited.begin(), visited.end());
  ASSERT_EQ(visited, model_in_disk(m, center, radius2));
  ASSERT_EQ(cells, model_cells_visited(m, center, radius2));
  ASSERT_EQ(grid.nearest(center, exclude), model_nearest(m, center, exclude));
  ASSERT_EQ(grid.nearest(center), model_nearest(m, center, kInvalidNode));
  ASSERT_EQ(grid.estimate_in_disk(center, std::sqrt(radius2)),
            model_estimate(m, std::sqrt(radius2)));

  double max_w = 0.0;
  for (const auto& [id, pw] : m.points) max_w = std::max(max_w, pw.second);
  const double query_r2 = std::max(max_w, radius2);
  const CoverageResult fast = count_covering(grid, center, query_r2, exclude);
  const CoverageResult slow =
      count_covering_scalar(grid, center, query_r2, exclude);
  ASSERT_EQ(fast.covered, slow.covered);
  ASSERT_EQ(fast.visited, slow.visited);
  ASSERT_EQ(fast.cells, slow.cells);
  std::uint32_t covered = 0;
  std::uint64_t in_scan = 0;
  for (const auto& [id, pw] : m.points) {
    if (id == exclude) continue;
    const double d2 = dist2(pw.first, center);
    if (d2 > query_r2) continue;
    ++in_scan;
    if (pw.second > 0.0 && d2 <= pw.second) ++covered;
  }
  ASSERT_EQ(fast.covered, covered);
  ASSERT_EQ(fast.visited, in_scan);

  NodeId id_cap = 1;
  if (!m.points.empty()) id_cap = m.points.rbegin()->first + 1;
  std::vector<std::uint32_t> vec(id_cap, 1000);
  std::vector<std::uint32_t> ref(id_cap, 1000);
  const double old_r2 = radius2 * 0.5;
  const DeltaResult a =
      apply_disk_delta(grid, center, old_r2, radius2, exclude, vec.data());
  const DeltaResult b = apply_disk_delta_scalar(grid, center, old_r2, radius2,
                                                exclude, ref.data());
  ASSERT_EQ(a.visited, b.visited);
  ASSERT_EQ(a.cells, b.cells);
  ASSERT_EQ(vec, ref);
}

/// Model-based property test: seeded random insert/erase/move/relabel/
/// set_weight sequences, every query checked after every step. Points live
/// near the origin (negative coordinates included) and in a far copy of that
/// region offset by exactly 2^32 cells, so far cells share packed keys with
/// near ones (the 32-bit wrap). The run grows from empty, drains to empty
/// and regrows; it must move runs to the arena tail, re-lay out the arena,
/// and empty and refill cells along the way.
class DynamicGridModelTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(DynamicGridModelTest, EveryQueryMatchesBruteForceAfterEveryStep) {
  const auto [seed, cell] = GetParam();
  sim::Rng rng(seed);
  DynamicGrid grid(cell);
  Model m;
  m.cell = cell;
  const double far = std::ldexp(cell, 32);  // 2^32 cells away, exactly
  const auto random_point = [&]() -> Vec2 {
    // A few hot cells (duplicates included) so runs overflow and cells
    // empty and refill; the rest spread over [-3, 3]^2.
    const double roll = rng.next_double();
    Vec2 p{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    if (roll < 0.3) p = {rng.uniform(0.0, cell), rng.uniform(-cell, 0.0)};
    if (roll < 0.05 && !m.points.empty()) {
      p = std::next(m.points.begin(),
                    static_cast<long>(rng.next_below(m.points.size())))
              ->second.first;
    }
    if (rng.next_double() < 0.15) p.x += far;
    return p;
  };
  const auto random_present = [&]() {
    return std::next(m.points.begin(),
                     static_cast<long>(rng.next_below(m.points.size())))
        ->first;
  };
  const auto random_weight = [&]() {
    return rng.next_double() < 0.3 ? 0.0 : rng.uniform(0.0, 2.0);
  };

  NodeId next_id = 0;
  std::size_t max_arena = 0;
  bool grew = false;       // a run moved to the tail left dead slots
  bool compacted = false;  // the arena shrank: a re-layout ran
  std::size_t refills = 0;
  std::set<Model::Key> emptied;
  const int kSteps = 1500;
  for (int step = 0; step < kSteps; ++step) {
    // Grow for the first third, churn, drain to empty, then regrow.
    const bool draining = step >= 900 && step < 1100;
    const double p_insert = step < 500 ? 0.7 : (draining ? 0.0 : 0.35);
    const auto before = m.keys();
    const double roll = rng.next_double();
    if (m.points.empty() || roll < p_insert) {
      const NodeId id = next_id++;
      const Vec2 p = random_point();
      const double w = random_weight();
      grid.insert(id, p, w);
      m.points[id] = {p, w};
    } else if (roll < p_insert + (draining ? 0.8 : 0.25)) {
      const NodeId victim = random_present();
      grid.erase(victim);
      m.points.erase(victim);
      // The engine's swap-with-last: the largest id takes the free slot.
      if (!m.points.empty() && rng.next_double() < 0.5) {
        const NodeId last = m.points.rbegin()->first;
        if (last > victim) {
          grid.relabel(last, victim);
          m.points[victim] = m.points[last];
          m.points.erase(last);
        }
      }
    } else if (roll < p_insert + 0.8) {
      const NodeId id = random_present();
      Vec2 p = random_point();
      if (rng.next_double() < 0.3) {  // a nudge, usually within the cell
        p = m.points[id].first;
        p.x += rng.uniform(-0.01, 0.01);
      }
      grid.move(id, p);
      m.points[id].first = p;
    } else if (roll < p_insert + 0.9) {
      const NodeId id = random_present();
      const double w = random_weight();
      grid.set_weight(id, w);
      m.points[id].second = w;
    } else {
      const NodeId from = random_present();
      const NodeId to = next_id++;
      grid.relabel(from, to);
      m.points[to] = m.points[from];
      m.points.erase(from);
    }

    const auto after = m.keys();
    for (const auto& k : before) {
      if (after.count(k) == 0) emptied.insert(k);
    }
    for (const auto& k : after) {
      if (before.count(k) == 0 && emptied.count(k) != 0) ++refills;
    }
    if (grid.arena_slots() > grid.size()) grew = true;
    if (grid.arena_slots() < max_arena) compacted = true;
    max_arena = std::max(max_arena, grid.arena_slots());

    const std::string where = "step " + std::to_string(step);
    ASSERT_EQ(grid.size(), m.points.size()) << where;
    ASSERT_EQ(grid.occupied_cells(), after.size()) << where;
    for (const auto& [id, pw] : m.points) {
      ASSERT_TRUE(grid.contains(id)) << where;
      ASSERT_EQ(grid.position(id), pw.first) << where;
      ASSERT_EQ(grid.weight(id), pw.second) << where;
    }
    if (draining && m.points.empty()) {
      ASSERT_EQ(grid.occupied_cells(), 0u) << where;
    }

    const NodeId exclude =
        m.points.empty() || rng.next_double() < 0.3 ? kInvalidNode
                                                     : random_present();
    Vec2 center = random_point();
    if (!m.points.empty() && rng.next_double() < 0.3) {
      center = m.points.at(random_present()).first;
    }
    // Small and medium radii walk the rectangle; 1e6 and 1e20 exceed the
    // occupancy and take the full scan (1e20 reaches the far copy).
    const double radii2[] = {0.0, rng.uniform(0.0, 1.0),
                             rng.uniform(1.0, 16.0), 1e6, 1e20};
    for (const double r2 : radii2) {
      expect_queries_match(grid, m, center, r2, exclude, where);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_TRUE(grew);
  EXPECT_TRUE(compacted);
  EXPECT_GT(refills, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DynamicGridModelTest,
    ::testing::Combine(::testing::Values(3u, 17u, 29u),
                       ::testing::Values(0.5, 0.7)));

/// build() must equal id-order insert() calls: same checksum, same cells,
/// ids ascending within each cell, and every query the same.
void expect_build_matches_inserts(const std::vector<Vec2>& points,
                                  double cell) {
  sim::Rng rng(points.size());
  std::vector<double> ws;
  DynamicGrid one_by_one(cell);
  Model m;
  m.cell = cell;
  for (NodeId v = 0; v < points.size(); ++v) {
    const double w = rng.next_double() < 0.2 ? 0.0 : rng.uniform(0.0, 1.0);
    ws.push_back(w);
    one_by_one.insert(v, points[v], w);
    m.points[v] = {points[v], w};
  }
  DynamicGrid bulk(123.0);
  bulk.insert(5, {1.0, 2.0});  // build() replaces earlier contents
  bulk.build(cell, points, ws);
  ASSERT_EQ(bulk.size(), points.size());
  ASSERT_EQ(bulk.cell_size(), cell);
  ASSERT_EQ(bulk.content_checksum(), one_by_one.content_checksum());
  ASSERT_EQ(bulk.occupied_cells(), one_by_one.occupied_cells());
  ASSERT_EQ(bulk.occupied_cells(), m.keys().size());
  ASSERT_EQ(bulk.arena_slots(), points.size());
  ASSERT_EQ(bulk.stats().inserts.value(), points.size());

  // Same cells with the same id sequences (the full scan lists them all).
  const auto cell_runs = [](const DynamicGrid& g) {
    std::vector<std::vector<NodeId>> runs;
    g.for_each_cell_in_disk({0.0, 0.0}, 1e300,
                            [&](const DynamicGrid::CellView& c) {
                              runs.emplace_back(c.ids, c.ids + c.count);
                            });
    std::sort(runs.begin(), runs.end());
    return runs;
  };
  const auto bulk_runs = cell_runs(bulk);
  for (const auto& run : bulk_runs) {
    ASSERT_TRUE(std::is_sorted(run.begin(), run.end()));
  }
  ASSERT_EQ(bulk_runs, cell_runs(one_by_one));

  std::vector<Vec2> centers = {{0.0, 0.0}, {-1e9, 1e9}};
  for (std::size_t v = 0; v < points.size(); v += 1 + points.size() / 24) {
    centers.push_back(points[v]);
  }
  for (const Vec2 c : centers) {
    for (const double r2 : {0.0, cell * cell, 4.0 * cell * cell, 1.0, 1e300}) {
      const auto exclude = static_cast<NodeId>(rng.next_below(points.size()));
      expect_queries_match(bulk, m, c, r2, exclude, "bulk");
      if (::testing::Test::HasFatalFailure()) return;
      std::vector<NodeId> a;
      std::vector<NodeId> b;
      const std::size_t cells_a = bulk.for_each_in_disk_squared(
          c, r2, [&](NodeId id, Vec2) { a.push_back(id); });
      const std::size_t cells_b = one_by_one.for_each_in_disk_squared(
          c, r2, [&](NodeId id, Vec2) { b.push_back(id); });
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b);
      ASSERT_EQ(cells_a, cells_b);
      ASSERT_EQ(bulk.nearest(c, exclude), one_by_one.nearest(c, exclude));
    }
  }

  // A bulk-built grid keeps working as a mutable index.
  for (NodeId v = 0; v < points.size(); v += 3) {
    const Vec2 p{points[v].y, points[v].x};
    bulk.move(v, p);
    one_by_one.move(v, p);
  }
  ASSERT_EQ(bulk.content_checksum(), one_by_one.content_checksum());
  ASSERT_EQ(bulk.occupied_cells(), one_by_one.occupied_cells());
}

TEST(DynamicGridBuild, MatchesOneAtATimeInserts) {
  sim::Rng rng(41);
  std::vector<Vec2> uniform;
  for (int i = 0; i < 2000; ++i) {
    uniform.push_back({rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)});
  }
  expect_build_matches_inserts(uniform, 0.7);
  expect_build_matches_inserts(uniform, 0.05);  // ~1 point per cell

  // Clusters with exact duplicates, plus far copies 2^32 cells away that
  // share packed keys with the near ones.
  std::vector<Vec2> clustered;
  for (int i = 0; i < 600; ++i) {
    Vec2 p{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    if (i % 5 == 0) p = {0.25, -0.25};
    if (i % 3 == 0) p.x += std::ldexp(0.5, 32);
    if (i % 7 == 0) p.y -= std::ldexp(0.5, 32);
    clustered.push_back(p);
  }
  expect_build_matches_inserts(clustered, 0.5);

  // The Fig. 7 exponential chain at its smallest gap: keys spread over
  // far more cells than any bounding-box table could hold.
  const auto chain = highway::exponential_chain(42).to_points();
  expect_build_matches_inserts(chain, chain[1].x - chain[0].x);

  expect_build_matches_inserts({{3.0, 4.0}}, 1.0);
}

TEST(DynamicGridBuild, EmptyBuildClears) {
  DynamicGrid grid(1.0);
  grid.insert(0, {0.0, 0.0});
  grid.build(2.0, {}, {});
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_EQ(grid.occupied_cells(), 0u);
  EXPECT_EQ(grid.cell_size(), 2.0);
  EXPECT_EQ(grid.nearest({0.0, 0.0}), kInvalidNode);
  EXPECT_EQ(grid.content_checksum(), DynamicGrid(2.0).content_checksum());
}

}  // namespace
}  // namespace rim::geom
