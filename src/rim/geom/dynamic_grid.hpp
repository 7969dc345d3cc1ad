#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
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
/// it per event. DynamicGrid keeps the same cell decomposition over an
/// unbounded plane, so points can be inserted, erased, moved, and
/// relabelled in O(1) amortised time while disk queries stay
/// O(cells ∩ disk). It is the persistent index behind core::Scenario's
/// incremental interference engine.
///
/// Layout: one flat structure-of-arrays arena holds every point's
/// x/y/weight/id (the weight is the owner's squared transmission radius,
/// kept adjacent so the coverage kernels touch one stream). Each occupied
/// cell owns one contiguous run [begin, begin + size) of the arena, with
/// room for `capacity` points; a dense vector holds one header per occupied
/// cell, and an open-addressing table (linear probing) maps a packed cell
/// key to its header. An insert into a full cell moves the run to the arena
/// tail at double capacity; a cell that empties drops its header at once,
/// so the header count is always the occupied-cell count. When the dead
/// slots left behind outnumber the live points, every run is re-laid out
/// in header order in one pass. A copy is a handful of flat vectors.
///
/// build() lays out a whole point set in one pass: a stable LSD radix sort
/// of the ids by cell key, then one run per distinct key, so ids ascend
/// within each cell exactly as id-order insert() calls leave them.
///
/// Disk queries expose whole runs through for_each_cell_in_disk(); the
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

  /// Drop all points and load ids 0..n-1 at points[i] with weights ws[i]
  /// in one pass. The result equals n id-order insert() calls into an
  /// empty grid: same content_checksum(), same cells, ids ascending within
  /// each cell. Coordinates must be finite.
  void build(double cell_size, std::span<const Vec2> points,
             std::span<const double> ws);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] double cell_size() const { return cell_size_; }
  /// Number of non-empty cells.
  [[nodiscard]] std::size_t occupied_cells() const { return cells_.size(); }
  /// Arena slots in use: live points, spare room at the end of runs, and
  /// dead slots left by moved or emptied runs (until the next re-layout).
  [[nodiscard]] std::size_t arena_slots() const { return ids_.size(); }
  [[nodiscard]] bool contains(NodeId id) const {
    return id < slot_.size() && slot_[id] != kNone;
  }
  /// The position of \p id (must be present).
  [[nodiscard]] Vec2 position(NodeId id) const {
    return {xs_[slot_[id]], ys_[slot_[id]]};
  }
  /// The weight (squared radius) registered for \p id (must be present).
  [[nodiscard]] double weight(NodeId id) const { return ws_[slot_[id]]; }

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

  /// Invoke fn(CellView) for every non-empty cell that may hold points of
  /// the closed disk dist2(p, center) <= radius2 — the walk rectangle of
  /// the ulp-inflated radius, or every occupied cell (in header order) when
  /// the rectangle is larger than the occupancy (bounding huge-radius
  /// queries by O(points)). Cells outside the disk may be visited; points
  /// inside it are never missed. Returns the number of cells visited.
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
    // When the walk rectangle holds more cells than are occupied, scanning
    // the occupied cells directly is cheaper (and bounds a huge-radius
    // query by O(points) instead of O(rectangle area)).
    if (span_x * span_y > static_cast<double>(cells_.size())) {
      for (const CellHeader& cell : cells_) fn(view(cell));
      return cells_.size();
    }
    std::size_t cells_visited = 0;
    for (std::int64_t cy = loy; cy <= hiy; ++cy) {
      for (std::int64_t cx = lox; cx <= hix; ++cx) {
        const std::uint32_t c = find_cell(pack(cx, cy));
        if (c == kNone) continue;
        ++cells_visited;
        fn(view(cells_[c]));
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
  /// of arena layout and insertion history. Two grids holding the same
  /// points at the same cell size (e.g. an evolved grid and one rebuilt by
  /// Scenario::restore) checksum identically; snapshot tests use this to
  /// witness grid-occupancy equivalence.
  [[nodiscard]] std::uint64_t content_checksum() const;

  /// Lifetime operation counters (reset by clear()).
  [[nodiscard]] const GridStats& stats() const { return stats_; }

 private:
  /// Cells are keyed by their packed (cx, cy) coordinate. The pack wraps
  /// coordinates to 32 bits; a wrap collision merely co-buckets two far
  /// apart cells, and the exact distance test rejects their points.
  using CellKey = std::uint64_t;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// One occupied cell: its key and its run [begin, begin + size) of the
  /// arena, which has room for `capacity` points.
  struct CellHeader {
    CellKey key;
    std::uint32_t begin;
    std::uint32_t size;
    std::uint32_t capacity;
  };
  /// One open-addressing bucket: the header index of a cell (kNone when
  /// the bucket is free) and the top 32 bits of its key's hash. The hash
  /// fixes the home bucket, and a matching tag is confirmed against the
  /// header's key.
  struct Bucket {
    std::uint32_t tag = 0;
    std::uint32_t cell = kNone;
  };

  [[nodiscard]] static CellKey pack(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  [[nodiscard]] std::int64_t coord(double x) const {
    // Clamped so a far-out point or a tiny cell cannot overflow the cast;
    // a walk across such cells takes the full-scan branch.
    constexpr double kLimit = 0x1p61;
    return static_cast<std::int64_t>(
        std::clamp(std::floor(x / cell_size_), -kLimit, kLimit));
  }
  [[nodiscard]] CellKey key_of(Vec2 p) const {
    return pack(coord(p.x), coord(p.y));
  }
  [[nodiscard]] CellView view(const CellHeader& cell) const {
    return {xs_.data() + cell.begin, ys_.data() + cell.begin,
            ws_.data() + cell.begin, ids_.data() + cell.begin, cell.size};
  }
  /// Fibonacci hash of \p key, top half: every bit of the key reaches it.
  [[nodiscard]] static std::uint32_t tag_of(CellKey key) {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
  }
  /// Header index of the cell keyed \p key, or kNone when it is empty.
  [[nodiscard]] std::uint32_t find_cell(CellKey key) const {
    if (table_.empty()) return kNone;
    const std::uint32_t tag = tag_of(key);
    const std::size_t mask = table_.size() - 1;
    for (std::size_t b = tag >> table_shift_;; b = (b + 1) & mask) {
      const Bucket& bucket = table_[b];
      if (bucket.cell == kNone) return kNone;
      if (bucket.tag == tag && cells_[bucket.cell].key == key) {
        return bucket.cell;
      }
    }
  }
  /// The bucket holding header index \p cell (which must be present).
  [[nodiscard]] std::size_t bucket_of(std::uint32_t cell) const;
  void table_insert(CellKey key, std::uint32_t cell);
  void table_erase(std::uint32_t cell);
  void rehash(std::size_t min_cells);
  std::uint32_t append_run(std::uint32_t capacity);
  void grow(std::uint32_t cell);
  void drop_cell(std::uint32_t cell);
  void compact();
  void ensure_id(NodeId id);
  void attach(NodeId id, CellKey key, double x, double y, double w);
  void detach(NodeId id);

  double cell_size_;
  std::size_t count_ = 0;
  // The arena: one SoA slot per point, grouped into per-cell runs.
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> ws_;
  std::vector<NodeId> ids_;
  std::size_t dead_ = 0;  ///< arena slots owned by no cell
  std::vector<CellHeader> cells_;  ///< one per non-empty cell
  std::vector<Bucket> table_;      ///< power-of-two size, at most half full
  unsigned table_shift_ = 32;      ///< tag >> table_shift_ is the home bucket
  // Per-id mirrors (indexed by id, grown on demand).
  std::vector<CellKey> key_;
  std::vector<std::uint32_t> slot_;  ///< arena slot, kNone when absent
  // Mutable: const queries still count themselves (relaxed atomics).
  mutable GridStats stats_;
};

}  // namespace rim::geom
