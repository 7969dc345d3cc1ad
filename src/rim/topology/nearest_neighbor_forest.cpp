#include "rim/topology/nearest_neighbor_forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "rim/geom/aabb.hpp"
#include "rim/geom/grid_index.hpp"

namespace rim::topology {

graph::Graph nearest_neighbor_forest(std::span<const geom::Vec2> points,
                                     const graph::Graph& udg) {
  graph::Graph out(points.size());
  for (NodeId u = 0; u < points.size(); ++u) {
    NodeId best = kInvalidNode;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (NodeId v : udg.neighbors(u)) {
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

graph::Graph nearest_neighbor_forest(std::span<const geom::Vec2> points) {
  graph::Graph out(points.size());
  if (points.size() < 2) return out;

  // Cell size targeting ~2 points per cell: expanding-ring nearest() then
  // terminates after O(1) rings for anything near-uniform, mostly the
  // first (measured ~10% faster than ~1 point per cell at 100k nodes).
  const geom::Aabb box = geom::bounding_box(points);
  const double extent = std::max(box.width(), box.height());
  const double cell = std::max(
      1.5 * extent / std::sqrt(static_cast<double>(points.size())), 1e-12);
  const geom::GridIndex index(points, cell);

  // Queries run in slot (cell) order, so consecutive walks share cells;
  // the links are then added in ascending node order, which fixes the
  // adjacency lists.
  std::vector<NodeId> nearest(points.size(), kInvalidNode);
  const std::span<const double> xs = index.xs();
  const std::span<const double> ys = index.ys();
  const std::span<const NodeId> ids = index.ids();
  for (std::size_t s = 0; s < ids.size(); ++s) {
    nearest[ids[s]] = index.nearest({xs[s], ys[s]}, ids[s]);
  }
  for (NodeId u = 0; u < points.size(); ++u) {
    if (nearest[u] != kInvalidNode) out.add_edge(u, nearest[u]);
  }
  return out;
}

}  // namespace rim::topology
