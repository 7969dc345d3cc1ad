#include "rim/geom/dynamic_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace rim::geom {

io::Json GridStats::to_json() const {
  io::JsonObject o;
  o["inserts"] = inserts.to_json();
  o["erases"] = erases.to_json();
  o["moves"] = moves.to_json();
  o["relabels"] = relabels.to_json();
  o["disk_queries"] = disk_queries.to_json();
  o["nearest_queries"] = nearest_queries.to_json();
  return io::Json(std::move(o));
}

DynamicGrid::DynamicGrid(double cell_size) : cell_size_(cell_size) {
  assert(cell_size_ > 0.0);
}

void DynamicGrid::clear(double cell_size) {
  assert(cell_size > 0.0);
  cell_size_ = cell_size;
  count_ = 0;
  cells_.clear();
  pos_.clear();
  key_.clear();
  idx_.clear();
  weight_.clear();
  present_.clear();
  stats_ = GridStats{};
}

std::int64_t DynamicGrid::coord(double x) const {
  return static_cast<std::int64_t>(std::floor(x / cell_size_));
}

DynamicGrid::CellKey DynamicGrid::key_of(Vec2 p) const {
  return pack(coord(p.x), coord(p.y));
}

void DynamicGrid::reserve(std::size_t nodes) {
  pos_.reserve(nodes);
  key_.reserve(nodes);
  idx_.reserve(nodes);
  weight_.reserve(nodes);
  present_.reserve(nodes);
  // Occupied-cell count is bounded by the point count; reserving that many
  // buckets over-provisions sparse instances but caps rehashes at zero.
  cells_.reserve(nodes);
}

void DynamicGrid::ensure_id(NodeId id) {
  if (id >= present_.size()) {
    pos_.resize(id + 1);
    key_.resize(id + 1);
    idx_.resize(id + 1);
    weight_.resize(id + 1, 0.0);
    present_.resize(id + 1, 0);
  }
}

void DynamicGrid::attach_to_cell(NodeId id) {
  Cell& cell = cells_[key_[id]];
  idx_[id] = static_cast<std::uint32_t>(cell.ids.size());
  cell.xs.push_back(pos_[id].x);
  cell.ys.push_back(pos_[id].y);
  cell.ws.push_back(weight_[id]);
  cell.ids.push_back(id);
}

void DynamicGrid::detach_from_cell(NodeId id) {
  const auto it = cells_.find(key_[id]);
  assert(it != cells_.end());
  Cell& cell = it->second;
  const std::size_t k = idx_[id];
  assert(k < cell.ids.size() && cell.ids[k] == id);
  const std::size_t last = cell.ids.size() - 1;
  if (k != last) {
    // Swap-with-last across all four columns, keeping them in lockstep.
    cell.xs[k] = cell.xs[last];
    cell.ys[k] = cell.ys[last];
    cell.ws[k] = cell.ws[last];
    cell.ids[k] = cell.ids[last];
    idx_[cell.ids[k]] = static_cast<std::uint32_t>(k);
  }
  cell.xs.pop_back();
  cell.ys.pop_back();
  cell.ws.pop_back();
  cell.ids.pop_back();
  if (cell.ids.empty()) cells_.erase(it);
}

void DynamicGrid::insert(NodeId id, Vec2 p, double weight) {
  assert(!contains(id));
  ++stats_.inserts;
  ensure_id(id);
  pos_[id] = p;
  key_[id] = key_of(p);
  weight_[id] = weight;
  present_[id] = 1;
  attach_to_cell(id);
  ++count_;
}

void DynamicGrid::erase(NodeId id) {
  assert(contains(id));
  ++stats_.erases;
  detach_from_cell(id);
  present_[id] = 0;
  --count_;
}

void DynamicGrid::move(NodeId id, Vec2 p) {
  assert(contains(id));
  ++stats_.moves;
  const CellKey key = key_of(p);
  if (key != key_[id]) {
    detach_from_cell(id);
    pos_[id] = p;
    key_[id] = key;
    attach_to_cell(id);
    return;
  }
  pos_[id] = p;
  Cell& cell = cells_[key_[id]];
  cell.xs[idx_[id]] = p.x;
  cell.ys[idx_[id]] = p.y;
}

void DynamicGrid::set_weight(NodeId id, double weight) {
  assert(contains(id));
  weight_[id] = weight;
  const auto it = cells_.find(key_[id]);
  assert(it != cells_.end());
  it->second.ws[idx_[id]] = weight;
}

void DynamicGrid::relabel(NodeId from, NodeId to) {
  assert(contains(from) && !contains(to));
  ++stats_.relabels;
  cells_[key_[from]].ids[idx_[from]] = to;
  ensure_id(to);
  pos_[to] = pos_[from];
  key_[to] = key_[from];
  idx_[to] = idx_[from];
  weight_[to] = weight_[from];
  present_[to] = 1;
  present_[from] = 0;
}

std::size_t DynamicGrid::estimate_in_disk(Vec2 center, double radius) const {
  (void)center;
  if (count_ == 0 || radius < 0.0) return 0;
  const double cells_across = std::floor(2.0 * radius / cell_size_) + 1.0;
  const double rect_cells = cells_across * cells_across;
  const auto occupied = static_cast<double>(cells_.size());
  if (rect_cells >= occupied) return count_;
  const double estimate =
      rect_cells * static_cast<double>(count_) / occupied;
  return static_cast<std::size_t>(
      std::min(estimate, static_cast<double>(count_)));
}

NodeId DynamicGrid::nearest(Vec2 center, NodeId exclude) const {
  ++stats_.nearest_queries;
  if (count_ == 0 || (count_ == 1 && contains(exclude))) return kInvalidNode;
  double radius = cell_size_;
  while (true) {
    NodeId best = kInvalidNode;
    double best_d2 = std::numeric_limits<double>::infinity();
    // A walk that degenerates to scanning every occupied cell has seen all
    // points, so its best candidate is certainly the nearest.
    const double walk_cells =
        (std::floor(2.0 * radius / cell_size_) + 1.0) *
        (std::floor(2.0 * radius / cell_size_) + 1.0);
    for_each_in_disk_squared(center, radius * radius, [&](NodeId id, Vec2 p) {
      if (id == exclude) return;
      const double d2 = dist2(p, center);
      if (d2 < best_d2 || (d2 == best_d2 && id < best)) {
        best_d2 = d2;
        best = id;
      }
    });
    if (best != kInvalidNode && best_d2 <= radius * radius) return best;
    if (walk_cells > static_cast<double>(cells_.size()) &&
        best != kInvalidNode) {
      return best;
    }
    radius *= 2.0;
  }
}

std::uint64_t DynamicGrid::content_checksum() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix64 = [&h](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  mix64(static_cast<std::uint64_t>(count_));
  std::uint64_t cell_bits = 0;
  std::memcpy(&cell_bits, &cell_size_, sizeof cell_bits);
  mix64(cell_bits);
  for (NodeId id = 0; id < present_.size(); ++id) {
    if (present_[id] == 0) continue;
    mix64(id);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &pos_[id].x, sizeof bits);
    mix64(bits);
    std::memcpy(&bits, &pos_[id].y, sizeof bits);
    mix64(bits);
    mix64(key_[id]);
  }
  return h;
}

}  // namespace rim::geom
