#include "rim/geom/dynamic_grid.hpp"

#include <algorithm>
#include <array>
#include <bit>
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
  xs_.clear();
  ys_.clear();
  ws_.clear();
  ids_.clear();
  dead_ = 0;
  cells_.clear();
  table_.clear();
  table_shift_ = 32;
  key_.clear();
  slot_.clear();
  stats_ = GridStats{};
}

void DynamicGrid::build(double cell_size, std::span<const Vec2> points,
                        std::span<const double> ws) {
  assert(points.size() == ws.size());
  assert(points.size() < kNone);
  clear(cell_size);
  const std::size_t n = points.size();
  if (n == 0) return;
  stats_.inserts += n;
  key_.resize(n);
  slot_.resize(n);

  // LSD radix sort of ids by cell key, one byte per pass. Each pass is
  // stable and ids start ascending, so ids stay ascending within a cell.
  // All eight digit histograms come from one read; a pass whose digit is
  // the same for every key would be the identity and is skipped.
  std::vector<NodeId> order(n);
  std::vector<NodeId> scratch(n);
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const CellKey key = key_of(points[i]);
    key_[i] = key;
    order[i] = static_cast<NodeId>(i);
    for (std::size_t d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xFFU];
  }
  for (std::size_t d = 0; d < 8; ++d) {
    auto& count = counts[d];
    const unsigned shift = 8 * static_cast<unsigned>(d);
    if (count[(key_[0] >> shift) & 0xFFU] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (const NodeId id : order) {
      scratch[count[(key_[id] >> shift) & 0xFFU]++] = id;
    }
    order.swap(scratch);
  }

  // Lay the cells out in sorted order, each run exactly full.
  std::size_t cells = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (key_[order[i]] != key_[order[i - 1]]) ++cells;
  }
  cells_.reserve(cells);
  xs_.resize(n);
  ys_.resize(n);
  ws_.resize(n);
  ids_.resize(n);
  for (std::size_t i = 0; i < n;) {
    const CellKey key = key_[order[i]];
    std::size_t j = i;
    for (; j < n && key_[order[j]] == key; ++j) {
      const NodeId id = order[j];
      xs_[j] = points[id].x;
      ys_[j] = points[id].y;
      ws_[j] = ws[id];
      ids_[j] = id;
      slot_[id] = static_cast<std::uint32_t>(j);
    }
    const auto size = static_cast<std::uint32_t>(j - i);
    cells_.push_back({key, static_cast<std::uint32_t>(i), size, size});
    i = j;
  }
  std::size_t buckets = 16;
  while (buckets < 2 * cells) buckets *= 2;
  rehash(buckets);
  count_ = n;
}

std::size_t DynamicGrid::bucket_of(std::uint32_t cell) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t b = tag_of(cells_[cell].key) >> table_shift_;
  while (table_[b].cell != cell) b = (b + 1) & mask;
  return b;
}

void DynamicGrid::table_insert(CellKey key, std::uint32_t cell) {
  const std::uint32_t tag = tag_of(key);
  const std::size_t mask = table_.size() - 1;
  std::size_t b = tag >> table_shift_;
  while (table_[b].cell != kNone) b = (b + 1) & mask;
  table_[b] = {tag, cell};
}

void DynamicGrid::table_erase(std::uint32_t cell) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless their home bucket lies after the hole, so lookups never
  // need tombstones.
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = bucket_of(cell);
  for (std::size_t b = (hole + 1) & mask; table_[b].cell != kNone;
       b = (b + 1) & mask) {
    const std::size_t home = table_[b].tag >> table_shift_;
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      table_[hole] = table_[b];
      hole = b;
    }
  }
  table_[hole].cell = kNone;
}

void DynamicGrid::rehash(std::size_t buckets) {
  table_.assign(buckets, Bucket{});
  table_shift_ = 32U - static_cast<unsigned>(std::countr_zero(buckets));
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    table_insert(cells_[c].key, static_cast<std::uint32_t>(c));
  }
}

std::uint32_t DynamicGrid::append_run(std::uint32_t capacity) {
  const std::size_t begin = ids_.size();
  assert(begin + capacity < kNone);
  xs_.resize(begin + capacity);
  ys_.resize(begin + capacity);
  ws_.resize(begin + capacity);
  ids_.resize(begin + capacity);
  return static_cast<std::uint32_t>(begin);
}

void DynamicGrid::grow(std::uint32_t cell) {
  const std::uint32_t begin = append_run(2 * cells_[cell].capacity);
  CellHeader& h = cells_[cell];
  std::copy_n(xs_.begin() + h.begin, h.size, xs_.begin() + begin);
  std::copy_n(ys_.begin() + h.begin, h.size, ys_.begin() + begin);
  std::copy_n(ws_.begin() + h.begin, h.size, ws_.begin() + begin);
  std::copy_n(ids_.begin() + h.begin, h.size, ids_.begin() + begin);
  for (std::uint32_t s = begin; s < begin + h.size; ++s) slot_[ids_[s]] = s;
  dead_ += h.capacity;
  h.begin = begin;
  h.capacity *= 2;
}

void DynamicGrid::drop_cell(std::uint32_t cell) {
  dead_ += cells_[cell].capacity;
  table_erase(cell);
  const auto last = static_cast<std::uint32_t>(cells_.size() - 1);
  if (cell != last) {
    table_[bucket_of(last)].cell = cell;
    cells_[cell] = cells_[last];
  }
  cells_.pop_back();
}

void DynamicGrid::compact() {
  std::vector<double> xs(count_);
  std::vector<double> ys(count_);
  std::vector<double> ws(count_);
  std::vector<NodeId> ids(count_);
  std::uint32_t next = 0;
  for (CellHeader& h : cells_) {
    std::copy_n(xs_.begin() + h.begin, h.size, xs.begin() + next);
    std::copy_n(ys_.begin() + h.begin, h.size, ys.begin() + next);
    std::copy_n(ws_.begin() + h.begin, h.size, ws.begin() + next);
    std::copy_n(ids_.begin() + h.begin, h.size, ids.begin() + next);
    for (std::uint32_t s = next; s < next + h.size; ++s) slot_[ids[s]] = s;
    h.begin = next;
    h.capacity = h.size;
    next += h.size;
  }
  xs_.swap(xs);
  ys_.swap(ys);
  ws_.swap(ws);
  ids_.swap(ids);
  dead_ = 0;
}

void DynamicGrid::ensure_id(NodeId id) {
  if (id >= slot_.size()) {
    key_.resize(id + 1);
    slot_.resize(id + 1, kNone);
  }
}

void DynamicGrid::attach(NodeId id, CellKey key, double x, double y,
                         double w) {
  std::uint32_t cell = find_cell(key);
  if (cell == kNone) {
    if (2 * (cells_.size() + 1) > table_.size()) {
      rehash(std::max<std::size_t>(16, 2 * table_.size()));
    }
    cell = static_cast<std::uint32_t>(cells_.size());
    cells_.push_back({key, append_run(1), 0, 1});
    table_insert(key, cell);
  } else if (cells_[cell].size == cells_[cell].capacity) {
    grow(cell);
  }
  CellHeader& h = cells_[cell];
  const std::uint32_t s = h.begin + h.size++;
  xs_[s] = x;
  ys_[s] = y;
  ws_[s] = w;
  ids_[s] = id;
  slot_[id] = s;
  key_[id] = key;
}

void DynamicGrid::detach(NodeId id) {
  const std::uint32_t cell = find_cell(key_[id]);
  assert(cell != kNone);
  CellHeader& h = cells_[cell];
  const std::uint32_t s = slot_[id];
  const std::uint32_t last = h.begin + h.size - 1;
  assert(s >= h.begin && s <= last && ids_[s] == id);
  if (s != last) {
    // Swap-with-last across all four columns, keeping them in lockstep.
    xs_[s] = xs_[last];
    ys_[s] = ys_[last];
    ws_[s] = ws_[last];
    ids_[s] = ids_[last];
    slot_[ids_[s]] = s;
  }
  slot_[id] = kNone;
  if (--h.size == 0) drop_cell(cell);
}

void DynamicGrid::insert(NodeId id, Vec2 p, double weight) {
  assert(!contains(id));
  ++stats_.inserts;
  ensure_id(id);
  attach(id, key_of(p), p.x, p.y, weight);
  ++count_;
  if (dead_ > count_) compact();
}

void DynamicGrid::erase(NodeId id) {
  assert(contains(id));
  ++stats_.erases;
  detach(id);
  --count_;
  if (dead_ > count_) compact();
}

void DynamicGrid::move(NodeId id, Vec2 p) {
  assert(contains(id));
  ++stats_.moves;
  const CellKey key = key_of(p);
  if (key != key_[id]) {
    const double w = ws_[slot_[id]];
    detach(id);
    attach(id, key, p.x, p.y, w);
    if (dead_ > count_) compact();
    return;
  }
  xs_[slot_[id]] = p.x;
  ys_[slot_[id]] = p.y;
}

void DynamicGrid::set_weight(NodeId id, double weight) {
  assert(contains(id));
  ws_[slot_[id]] = weight;
}

void DynamicGrid::relabel(NodeId from, NodeId to) {
  assert(contains(from) && !contains(to));
  ++stats_.relabels;
  ensure_id(to);
  const std::uint32_t s = slot_[from];
  ids_[s] = to;
  slot_[to] = s;
  key_[to] = key_[from];
  slot_[from] = kNone;
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
  for (NodeId id = 0; id < slot_.size(); ++id) {
    if (slot_[id] == kNone) continue;
    mix64(id);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &xs_[slot_[id]], sizeof bits);
    mix64(bits);
    std::memcpy(&bits, &ys_[slot_[id]], sizeof bits);
    mix64(bits);
    mix64(key_[id]);
  }
  return h;
}

}  // namespace rim::geom
