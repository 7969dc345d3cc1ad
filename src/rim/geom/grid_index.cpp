#include "rim/geom/grid_index.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace rim::geom {

GridIndex::GridIndex(std::span<const Vec2> points, double cell_size)
    : cell_size_(cell_size) {
  const std::size_t n = points.size();
  assert(cell_size_ > 0.0);
  assert(n < std::numeric_limits<std::uint32_t>::max());
  if (n == 0) {
    cell_start_.assign(2, 0);
    return;
  }
  box_ = {points[0], points[0]};
  for (std::size_t i = 1; i < n; ++i) box_.expand(points[i]);
  // Cap the grid so adversarially spread inputs (e.g. exponential chains)
  // cannot blow up memory or construction time; a coarser grid is merely
  // slower to query, never wrong. The cap scales with the point count so
  // building the index stays O(n). The fit test runs in double precision to
  // dodge int64 overflow when the requested cell size is absurdly small
  // relative to the extent.
  const double kMaxCells = std::min(
      double{1 << 22}, std::max(64.0, 16.0 * static_cast<double>(n)));
  while (std::max(1.0, std::floor(box_.width() / cell_size_) + 1.0) *
             std::max(1.0, std::floor(box_.height() / cell_size_) + 1.0) >
         kMaxCells) {
    cell_size_ *= 2.0;
  }
  nx_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor(box_.width() / cell_size_)) + 1);
  ny_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor(box_.height() / cell_size_)) + 1);

  // Counting sort by cell. Ids are scattered in ascending order, so each
  // cell's slots stay sorted by id.
  const auto cells = static_cast<std::size_t>(nx_ * ny_);
  std::vector<std::uint32_t> cell_of(n);
  cell_start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p = points[i];
    const auto k =
        static_cast<std::uint32_t>(clamp_cell(p.y - box_.lo.y, ny_) * nx_ +
                                   clamp_cell(p.x - box_.lo.x, nx_));
    cell_of[i] = k;
    ++cell_start_[k + 1];
  }
  for (std::size_t k = 0; k < cells; ++k) cell_start_[k + 1] += cell_start_[k];
  xs_.resize(n);
  ys_.resize(n);
  ids_.resize(n);
  // Scatter with cell_start_[k] as the cursor of cell k; afterwards it holds
  // the end of cell k, i.e. the start of cell k + 1, so one shift restores
  // the offsets.
  for (std::size_t i = 0; i < n; ++i) {
    ids_[cell_start_[cell_of[i]]++] = static_cast<NodeId>(i);
  }
  std::copy_backward(cell_start_.begin(), cell_start_.end() - 1,
                     cell_start_.end());
  cell_start_[0] = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const Vec2 p = points[ids_[s]];
    xs_[s] = p.x;
    ys_[s] = p.y;
  }
}

std::int64_t GridIndex::clamp_cell(double offset, std::int64_t cells) const {
  const double c = offset / cell_size_;
  // Written so NaN and infinities clamp too, before any integer cast; on
  // the non-negative range left the truncating cast is the floor.
  if (!(c >= 0.0)) return 0;
  if (c >= static_cast<double>(cells - 1)) return cells - 1;
  return static_cast<std::int64_t>(c);
}

GridIndex::Rect GridIndex::cell_rect(const Aabb& box) const {
  // A box that misses the points' bounding box reaches no point.
  if (ids_.empty() || box.hi.x < box_.lo.x || box.lo.x > box_.hi.x ||
      box.hi.y < box_.lo.y || box.lo.y > box_.hi.y) {
    return {};
  }
  return {clamp_cell(box.lo.x - box_.lo.x, nx_),
          clamp_cell(box.hi.x - box_.lo.x, nx_),
          clamp_cell(box.lo.y - box_.lo.y, ny_),
          clamp_cell(box.hi.y - box_.lo.y, ny_)};
}

std::vector<NodeId> GridIndex::query_disk(Vec2 center, double radius) const {
  std::vector<NodeId> out;
  for_each_in_disk(center, radius, [&out](NodeId id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t GridIndex::count_in_disk(Vec2 center, double radius) const {
  std::size_t count = 0;
  for_each_in_disk(center, radius, [&count](NodeId) { ++count; });
  return count;
}

NodeId GridIndex::nearest(Vec2 center, NodeId exclude) const {
  if (ids_.empty()) return kInvalidNode;
  // Expanding-ring search: try radius = cell, 2*cell, 4*cell, ... and stop
  // as soon as a candidate is found whose distance is certainly minimal
  // (the found distance is covered by the searched radius), or once the
  // walk has spanned the whole grid and so seen every point.
  for (double radius = cell_size_;; radius *= 2.0) {
    const double r2 = radius * radius;
    NodeId best = kInvalidNode;
    double best_d2 = std::numeric_limits<double>::infinity();
    const Aabb square = walk_square(center, r2);
    const Rect r = cell_rect(square);
    for_each_row_span(square, [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        const NodeId id = ids_[s];
        if (id == exclude) continue;
        const double d2 = dist2(Vec2{xs_[s], ys_[s]}, center);
        if (d2 < best_d2 || (d2 == best_d2 && id < best)) {
          best_d2 = d2;
          best = id;
        }
      }
    });
    if (best != kInvalidNode && best_d2 <= r2) return best;
    const bool whole_grid = r.lo_cx == 0 && r.lo_cy == 0 &&
                            r.hi_cx == nx_ - 1 && r.hi_cy == ny_ - 1;
    // An infinite radius that still spans less than the grid comes from a
    // NaN centre, which no point is near.
    if (whole_grid || !(r2 < std::numeric_limits<double>::infinity())) {
      return best;
    }
  }
}

}  // namespace rim::geom
