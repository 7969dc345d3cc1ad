#include "rim/core/interference.hpp"

#include <algorithm>
#include <cassert>

#include "rim/core/radii.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/parallel/parallel_for.hpp"
#include "rim/simd/simd.hpp"

namespace rim::core {

namespace {

/// All evaluators work on *squared* radii: containment is the exact test
/// dist2(u, v) <= radii2[u], so a node's farthest topology neighbor (whose
/// squared distance defines radii2[u]) is always covered — a sqrt/square
/// roundtrip can miss it by one ulp.

/// Counting-side trick: instead of asking for every v "which disks cover
/// me?", iterate over transmitters u and increment a counter at every node
/// inside D(u, r_u). One frozen GridIndex serves every transmitter; the
/// counters live in its slot order, so each row span of a walk is one
/// simd::increment_within call over a contiguous run. The transmitters are
/// cut into \p stripes contiguous slot ranges, each with its own counters
/// and run by parallel_for on the shared pool when there is more than one;
/// the integer sums do not depend on the cut.
std::vector<std::uint32_t> eval_striped(std::span<const geom::Vec2> points,
                                        std::span<const double> radii2,
                                        std::size_t stripes) {
  const std::size_t n = points.size();
  std::vector<std::uint32_t> covered(n, 0);
  if (n == 0) return covered;
  // Cells of twice the median radius: about one point per cell at the
  // NNF density, fewer rows per walk (measured ~15% faster than the median
  // radius at 100k nodes).
  const geom::GridIndex index(points, pick_cell_size(radii2) * 2.0);
  const double* xs = index.xs().data();
  const double* ys = index.ys().data();
  const std::span<const NodeId> ids = index.ids();
  std::vector<std::vector<std::uint32_t>> by_slot(stripes);
  const auto count = [&](std::size_t k) {
    std::vector<std::uint32_t>& mine = by_slot[k];
    mine.assign(n, 0);
    for (std::size_t u = k * n / stripes; u < (k + 1) * n / stripes; ++u) {
      const double r2 = radii2[ids[u]];
      if (!(r2 > 0.0)) continue;
      index.for_each_row_span(
          {xs[u], ys[u]}, r2, [&](std::size_t begin, std::size_t end) {
            simd::increment_within(xs + begin, ys + begin, end - begin,
                                   xs[u], ys[u], r2, mine.data() + begin);
          });
      --mine[u];  // its own lane: d2 == 0 <= r2
    }
  };
  parallel::parallel_for(0, stripes, count, parallel::ThreadPool::shared(),
                         /*grain=*/1);
  for (std::size_t u = 0; u < n; ++u) {
    std::uint32_t sum = 0;
    for (const std::vector<std::uint32_t>& mine : by_slot) sum += mine[u];
    covered[ids[u]] = sum;
  }
  return covered;
}

std::vector<std::uint32_t> eval_brute(std::span<const geom::Vec2> points,
                                      std::span<const double> radii2) {
  std::vector<std::uint32_t> covered(points.size(), 0);
  for (NodeId u = 0; u < points.size(); ++u) {
    if (radii2[u] <= 0.0) continue;
    for (NodeId v = 0; v < points.size(); ++v) {
      if (v != u && geom::dist2(points[u], points[v]) <= radii2[u]) ++covered[v];
    }
  }
  return covered;
}

}  // namespace

InterferenceSummary InterferenceSummary::from_per_node(
    std::vector<std::uint32_t> per_node) {
  InterferenceSummary summary;
  summary.per_node = std::move(per_node);
  for (std::uint32_t i : summary.per_node) {
    summary.max = std::max(summary.max, i);
    summary.total += i;
  }
  summary.mean = summary.per_node.empty()
                     ? 0.0
                     : static_cast<double>(summary.total) /
                           static_cast<double>(summary.per_node.size());
  return summary;
}

std::vector<std::uint32_t> InterferenceSummary::histogram() const {
  std::vector<std::uint32_t> bins(static_cast<std::size_t>(max) + 1, 0);
  for (std::uint32_t i : per_node) ++bins[i];
  return bins;
}

std::vector<std::uint32_t> interference_vector_squared(
    std::span<const geom::Vec2> points, std::span<const double> radii2,
    Strategy strategy) {
  return interference_vector_squared(points, radii2,
                                     EvalOptions{}.with_strategy(strategy));
}

std::vector<std::uint32_t> interference_vector_squared(
    std::span<const geom::Vec2> points, std::span<const double> radii2,
    const EvalOptions& options) {
  assert(points.size() == radii2.size());
  switch (options.resolve(points.size())) {
    case Strategy::kGrid:
      return eval_striped(points, radii2, 1);
    case Strategy::kParallel:
      return eval_striped(points, radii2,
                          parallel::ThreadPool::shared().thread_count());
    case Strategy::kBrute:
    case Strategy::kAuto:
      break;
  }
  return eval_brute(points, radii2);
}

std::uint32_t graph_interference(const graph::Graph& topology,
                                 std::span<const geom::Vec2> points,
                                 Strategy strategy) {
  return graph_interference(topology, points,
                            EvalOptions{}.with_strategy(strategy));
}

std::uint32_t graph_interference(const graph::Graph& topology,
                                 std::span<const geom::Vec2> points,
                                 const EvalOptions& options) {
  assert(topology.node_count() == points.size());
  return InterferenceSummary::from_per_node(
             interference_vector_squared(
                 points, transmission_radii_squared(topology, points), options))
      .max;
}

std::vector<std::vector<NodeId>> covering_sets(const graph::Graph& topology,
                                               std::span<const geom::Vec2> points) {
  const std::vector<double> radii2 = transmission_radii_squared(topology, points);
  std::vector<std::vector<NodeId>> covered_by(points.size());
  if (points.empty()) return covered_by;
  const geom::GridIndex index(points, pick_cell_size(radii2));
  for (NodeId u = 0; u < points.size(); ++u) {
    if (radii2[u] <= 0.0) continue;
    index.for_each_in_disk_squared(points[u], radii2[u], [&](NodeId v) {
      if (v != u) covered_by[v].push_back(u);
    });
  }
  for (auto& list : covered_by) std::sort(list.begin(), list.end());
  return covered_by;
}

}  // namespace rim::core
