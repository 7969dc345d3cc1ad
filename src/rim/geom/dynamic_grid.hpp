#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "rim/common/types.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/obs/metrics.hpp"

/// \file dynamic_grid.hpp
/// Mutable uniform-grid spatial index over an evolving point set.
///
/// The frozen geom::GridIndex serves point sets that hold still while a
/// query pass runs (full evaluations, topology builders); a churn workload
/// where a single node arrives, departs, or moves per tick would rebuild
/// it per event. DynamicGrid keeps the same cell decomposition in a hash
/// map keyed by cell coordinate, so points can be inserted, erased, moved,
/// and relabelled in O(1) expected time while disk queries stay
/// O(cells ∩ disk). It is the persistent index behind core::Scenario's
/// incremental interference engine.
///
/// Storage is structure-of-arrays per cell: each cell holds contiguous
/// x/y/weight/id columns (the weight is the owner's squared transmission
/// radius, kept adjacent so the coverage kernels touch one stream). Disk
/// queries expose whole cells through for_each_cell_in_disk(); the
/// geom/grid_kernels.hpp kernels run the simd.hpp containment tests over
/// those columns two lanes at a time, bit-identical to the scalar loops.
///
/// Ids must be dense-ish small integers (they index internal arrays); the
/// engine's swap-with-last removal keeps them dense. Unlike GridIndex the
/// grid is unbounded: cells are materialised on demand, so points may roam
/// anywhere without a prior bounding box.

namespace rim::geom {

/// Observability counters of a DynamicGrid (obs layer; all monotone and
/// thread-safe — queries from concurrent batch tasks record freely).
struct GridStats {
  obs::Counter inserts;          ///< insert() calls
  obs::Counter erases;           ///< erase() calls
  obs::Counter moves;            ///< move() calls
  obs::Counter relabels;         ///< relabel() calls (swap-with-last renames)
  obs::Counter disk_queries;     ///< disk query calls (cell or point form)
  obs::Counter nearest_queries;  ///< nearest() calls

  [[nodiscard]] io::Json to_json() const;
};

class DynamicGrid {
 public:
  /// Read-only view of one cell's SoA columns. `xs[i]`, `ys[i]`, `ws[i]`
  /// and `ids[i]` describe the same point; `ws` is the squared radius
  /// registered via insert()/set_weight() (0 for non-transmitters).
  struct CellView {
    const double* xs = nullptr;
    const double* ys = nullptr;
    const double* ws = nullptr;
    const NodeId* ids = nullptr;
    std::size_t count = 0;
  };

  /// \p cell_size must be positive; pick it near the median query radius.
  explicit DynamicGrid(double cell_size = 1.0);

  /// Drop all points and start over with a new cell size.
  void clear(double cell_size);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] double cell_size() const { return cell_size_; }
  [[nodiscard]] bool contains(NodeId id) const {
    return id < present_.size() && present_[id] != 0;
  }
  [[nodiscard]] Vec2 position(NodeId id) const { return pos_[id]; }
  /// The weight (squared radius) registered for \p id (must be present).
  [[nodiscard]] double weight(NodeId id) const { return weight_[id]; }

  /// Pre-size the per-id mirrors and the cell table for \p nodes points —
  /// bulk loads (million-node deployments) pay one allocation per mirror
  /// and skip the hash-table rehash cascade instead of doubling through it.
  void reserve(std::size_t nodes);

  /// Insert \p id at \p p with coverage weight \p weight (its squared
  /// transmission radius). \p id must not currently be present.
  void insert(NodeId id, Vec2 p, double weight = 0.0);

  /// Remove \p id (must be present).
  void erase(NodeId id);

  /// Move \p id (must be present) to \p p; its weight travels with it.
  void move(NodeId id, Vec2 p);

  /// Update the coverage weight of \p id (must be present) in place.
  void set_weight(NodeId id, double weight);

  /// Rename \p from to \p to without moving the point. \p to must not be
  /// present. Supports the engine's swap-with-last node removal.
  void relabel(NodeId from, NodeId to);

  /// Invoke fn(CellView) for every cell that may hold points of the closed
  /// disk dist2(p, center) <= radius2 — the walk rectangle of the
  /// ulp-inflated radius, or every occupied cell when the rectangle is
  /// larger than the occupancy (bounding huge-radius queries by O(points)).
  /// Cells outside the disk may be visited; points inside it are never
  /// missed. Returns the number of cells visited.
  template <typename Fn>
  std::size_t for_each_cell_in_disk(Vec2 center, double radius2,
                                    Fn&& fn) const {
    ++stats_.disk_queries;
    if (count_ == 0 || radius2 < 0.0) return 0;
    // Same ulp inflation as GridIndex: a point whose exact squared distance
    // equals radius2 must never fall outside the visited cells.
    const double walk = walk_radius(radius2);
    const std::int64_t lox = coord(center.x - walk);
    const std::int64_t hix = coord(center.x + walk);
    const std::int64_t loy = coord(center.y - walk);
    const std::int64_t hiy = coord(center.y + walk);
    const auto span_x = static_cast<double>(hix - lox + 1);
    const auto span_y = static_cast<double>(hiy - loy + 1);
    std::size_t cells_visited = 0;
    // When the walk rectangle holds more cells than are occupied, scanning
    // the occupied cells directly is cheaper (and bounds a huge-radius
    // query by O(points) instead of O(rectangle area)).
    if (span_x * span_y > static_cast<double>(cells_.size())) {
      // RIM_LINT_ALLOW(project-taint): cell visit order is explicitly outside
      // this function's contract (the rectangle path below already visits in
      // a different order); callers fold cells with order-insensitive
      // set/count semantics, pinned bit-identical by the determinism tests.
      for (const auto& [key, cell] : cells_) {
        ++cells_visited;
        fn(cell.view());
      }
      return cells_visited;
    }
    for (std::int64_t cy = loy; cy <= hiy; ++cy) {
      for (std::int64_t cx = lox; cx <= hix; ++cx) {
        const auto it = cells_.find(pack(cx, cy));
        if (it == cells_.end()) continue;
        ++cells_visited;
        fn(it->second.view());
      }
    }
    return cells_visited;
  }

  /// Invoke fn(id, position) for every point with dist2(position, center)
  /// <= radius2 (closed disk, exact squared test — same contract as
  /// GridIndex::for_each_in_disk_squared). Returns the number of grid cells
  /// visited, for the caller's observability counters.
  template <typename Fn>
  std::size_t for_each_in_disk_squared(Vec2 center, double radius2,
                                       Fn&& fn) const {
    return for_each_cell_in_disk(center, radius2, [&](const CellView& cell) {
      for (std::size_t i = 0; i < cell.count; ++i) {
        const Vec2 p{cell.xs[i], cell.ys[i]};
        if (dist2(p, center) <= radius2) fn(cell.ids[i], p);
      }
    });
  }

  /// O(1) estimate of how many points a disk query would touch, from the
  /// cell count of the walk rectangle and the average cell occupancy. Used
  /// by the engine's incremental-vs-full fallback heuristic; never an
  /// undercount bound, just a density estimate.
  [[nodiscard]] std::size_t estimate_in_disk(Vec2 center, double radius) const;

  /// Nearest point to \p center other than \p exclude, by expanding-ring
  /// search; ties break toward the smaller id (deterministic, matching
  /// GridIndex::nearest). kInvalidNode when no eligible point exists.
  [[nodiscard]] NodeId nearest(Vec2 center, NodeId exclude = kInvalidNode) const;

  /// FNV-1a over (id, position bits, cell key) of every present point in
  /// ascending id order — a pure function of logical content, independent
  /// of per-cell bucket ordering and insertion history. Two grids holding
  /// the same points at the same cell size (e.g. an evolved grid and one
  /// rebuilt by Scenario::restore) checksum identically; snapshot tests
  /// use this to witness grid-occupancy equivalence.
  [[nodiscard]] std::uint64_t content_checksum() const;

  /// Lifetime operation counters (reset by clear()).
  [[nodiscard]] const GridStats& stats() const { return stats_; }

 private:
  /// Cells are keyed by their packed (cx, cy) coordinate. The pack wraps
  /// coordinates to 32 bits; a wrap collision merely co-buckets two far
  /// apart cells, and the exact distance test rejects their points.
  using CellKey = std::uint64_t;

  /// One cell's SoA columns (kept in lockstep; see CellView).
  struct Cell {
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<double> ws;
    std::vector<NodeId> ids;

    [[nodiscard]] CellView view() const {
      return {xs.data(), ys.data(), ws.data(), ids.data(), ids.size()};
    }
  };

  [[nodiscard]] static CellKey pack(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  [[nodiscard]] std::int64_t coord(double x) const;
  [[nodiscard]] CellKey key_of(Vec2 p) const;
  void ensure_id(NodeId id);
  void attach_to_cell(NodeId id);
  void detach_from_cell(NodeId id);

  double cell_size_;
  std::size_t count_ = 0;
  std::unordered_map<CellKey, Cell> cells_;
  // Per-id mirrors (indexed by id, grown on demand).
  std::vector<Vec2> pos_;
  std::vector<CellKey> key_;
  std::vector<std::uint32_t> idx_;  ///< slot within the cell's columns
  std::vector<double> weight_;
  std::vector<std::uint8_t> present_;
  // Mutable: const queries still count themselves (relaxed atomics).
  mutable GridStats stats_;
};

}  // namespace rim::geom
