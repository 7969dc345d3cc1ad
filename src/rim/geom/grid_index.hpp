#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rim/common/types.hpp"
#include "rim/geom/aabb.hpp"
#include "rim/geom/vec2.hpp"

/// \file grid_index.hpp
/// The frozen uniform-grid index over a static point set.
///
/// Every evaluator that indexes a point set which does not change while it
/// runs goes through this one structure: Unit-Disk-Graph, RNG and Gabriel
/// construction, the receiver-centric and sender-centric full evaluators,
/// the SINR scatter (one index per receiver stripe) and the points-only
/// nearest-neighbour forest. core::Scenario's mutable index is
/// geom::DynamicGrid.
///
/// Layout: one counting sort of the point ids by row-major cell into
/// contiguous structure-of-arrays columns xs() / ys() / ids() (compressed
/// sparse rows: cell k owns slots [cell_start[k], cell_start[k + 1])).
/// Within a cell the ids stay in ascending order, so every query visits
/// its points ordered by (row-major cell, id). Cells are squares of side
/// cell_size() anchored at the low corner of the points' bounding box;
/// the grid spans the box, and queries clamp into it.
///
/// Queries take templated visitors (no type-erased call per hit). The
/// lowest layer, for_each_row_span(), hands out one contiguous slot range
/// per cell row of the walk rectangle, so the simd.hpp kernels run over
/// long runs of the columns. The index is immutable after construction,
/// which keeps queries lock-free and safe to run from many threads.

namespace rim::geom {

class GridIndex {
 public:
  /// Index \p points (ids 0..n-1) with square cells of side \p cell_size,
  /// which must be positive. The coordinates are copied.
  GridIndex(std::span<const Vec2> points, double cell_size);

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  /// Cell side in use: the requested size, doubled until the grid holds at
  /// most max(64, 16 n) cells (capped at 2^22), so spread-out inputs such
  /// as exponential chains cannot blow up memory or build time.
  [[nodiscard]] double cell_size() const { return cell_size_; }

  /// The cell-sorted columns: slot s holds point ids()[s] at
  /// (xs()[s], ys()[s]).
  [[nodiscard]] std::span<const double> xs() const { return xs_; }
  [[nodiscard]] std::span<const double> ys() const { return ys_; }
  [[nodiscard]] std::span<const NodeId> ids() const { return ids_; }

  /// Invoke fn(begin, end) for each cell row of the cells meeting the
  /// closed box \p box, bottom row first: the slots [begin, end) hold that
  /// row's cells, left to right, so the concatenated ranges are in
  /// (row-major cell, id) order. Every point inside the box is in the
  /// ranges; points outside it may be too. Empty rows are skipped.
  template <typename Fn>
  void for_each_row_span(const Aabb& box, Fn&& fn) const {
    const Rect r = cell_rect(box);
    for (std::int64_t cy = r.lo_cy; cy <= r.hi_cy; ++cy) {
      const auto row = static_cast<std::size_t>(cy * nx_);
      const std::uint32_t begin =
          cell_start_[row + static_cast<std::size_t>(r.lo_cx)];
      const std::uint32_t end =
          cell_start_[row + static_cast<std::size_t>(r.hi_cx) + 1];
      if (begin < end) fn(std::size_t{begin}, std::size_t{end});
    }
  }

  /// The row spans of the closed disk dist2(p, center) <= radius2: those of
  /// its bounding square at the ulp-inflated geom::walk_radius(), so a
  /// point whose exact squared distance equals radius2 is never outside
  /// the ranges. Nothing for a negative or NaN radius2.
  template <typename Fn>
  void for_each_row_span(Vec2 center, double radius2, Fn&& fn) const {
    if (!(radius2 >= 0.0)) return;
    for_each_row_span(walk_square(center, radius2), fn);
  }

  /// Invoke fn(id) for every point with dist2(p, center) <= radius2 (closed
  /// disk, exact squared test), in (row-major cell, id) order.
  template <typename Fn>
  void for_each_in_disk_squared(Vec2 center, double radius2, Fn&& fn) const {
    for_each_row_span(center, radius2, [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        if (dist2(Vec2{xs_[s], ys_[s]}, center) <= radius2) fn(ids_[s]);
      }
    });
  }

  /// for_each_in_disk_squared with radius2 = radius * radius: every point
  /// within closed distance \p radius of \p center (nothing for a negative
  /// radius).
  template <typename Fn>
  void for_each_in_disk(Vec2 center, double radius, Fn&& fn) const {
    if (radius < 0.0) return;
    for_each_in_disk_squared(center, radius * radius, fn);
  }

  /// Ids of all points within closed distance \p radius of \p center, in
  /// ascending order.
  [[nodiscard]] std::vector<NodeId> query_disk(Vec2 center, double radius) const;

  /// Count of points within closed distance \p radius of \p center.
  [[nodiscard]] std::size_t count_in_disk(Vec2 center, double radius) const;

  /// Nearest indexed point to \p center other than \p exclude
  /// (pass kInvalidNode to consider all points). Returns kInvalidNode when
  /// the index holds no eligible point. Ties are broken toward the smaller
  /// id, which keeps downstream topologies deterministic.
  [[nodiscard]] NodeId nearest(Vec2 center, NodeId exclude = kInvalidNode) const;

 private:
  /// Inclusive cell rectangle of a walk; empty when lo > hi.
  struct Rect {
    std::int64_t lo_cx = 0;
    std::int64_t hi_cx = -1;
    std::int64_t lo_cy = 0;
    std::int64_t hi_cy = -1;
  };

  /// The closed square of side 2 * walk_radius(radius2) around \p center.
  [[nodiscard]] static Aabb walk_square(Vec2 center, double radius2) {
    const double walk = walk_radius(radius2);
    return {{center.x - walk, center.y - walk},
            {center.x + walk, center.y + walk}};
  }
  [[nodiscard]] std::int64_t clamp_cell(double offset,
                                        std::int64_t cells) const;
  [[nodiscard]] Rect cell_rect(const Aabb& box) const;

  double cell_size_;
  Aabb box_{};
  std::int64_t nx_ = 1;  // number of cells along x
  std::int64_t ny_ = 1;  // number of cells along y
  // Points of cell k (k = cy * nx + cx) sit in slots
  // [cell_start_[k], cell_start_[k + 1]) of the three columns.
  std::vector<std::uint32_t> cell_start_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<NodeId> ids_;
};

}  // namespace rim::geom
