#include "rim/core/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "rim/core/radii.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/geom/grid_kernels.hpp"

namespace rim::core {

io::Json ScenarioStats::to_json() const {
  io::JsonObject o;
  o["incremental_updates"] = incremental_updates.to_json();
  o["deferred_mutations"] = deferred_mutations.to_json();
  o["full_evaluations"] = full_evaluations.to_json();
  o["nodes_touched"] = nodes_touched.to_json();
  o["cells_touched"] = cells_touched.to_json();
  o["incremental_ns"] = incremental_ns.to_json();
  o["full_ns"] = full_ns.to_json();
  o["batches"] = batches.to_json();
  o["batch_mutations"] = batch_mutations.to_json();
  o["batch_disk_tasks"] = batch_disk_tasks.to_json();
  o["batch_recounts"] = batch_recounts.to_json();
  o["batch_waves"] = batch_waves.to_json();
  o["batch_deferred"] = batch_deferred.to_json();
  o["batch_ns"] = batch_ns.to_json();
  o["batch_wave_tasks"] = batch_wave_tasks.to_json();
  o["snapshots"] = snapshots.to_json();
  o["restores"] = restores.to_json();
  o["batch_aborts"] = batch_aborts.to_json();
  o["hook_skipped_tasks"] = hook_skipped_tasks.to_json();
  return io::Json(std::move(o));
}

Scenario::Scenario(EvalOptions options) : options_(options) {}

Scenario::Scenario(std::span<const geom::Vec2> points,
                   const graph::Graph& topology, EvalOptions options)
    : adjacency_(topology.node_count()),
      edge_count_(topology.edge_count()),
      options_(options) {
  assert(topology.node_count() == points.size());
  nodes_.reserve(points.size());
  for (NodeId u = 0; u < points.size(); ++u) nodes_.insert(u, points[u], 0.0);
  for (NodeId u = 0; u < topology.node_count(); ++u) {
    const auto neighbors = topology.neighbors(u);
    adjacency_[u].assign(neighbors.begin(), neighbors.end());
    const double r2 = farthest_neighbor_squared(u);
    nodes_.set_radius2(u, r2);
    max_radius2_ = std::max(max_radius2_, r2);
  }
}

Scenario::Scenario(const Scenario& other)
    : nodes_(other.nodes_),
      adjacency_(other.adjacency_),
      edge_count_(other.edge_count_),
      max_radius2_(other.max_radius2_),
      interference_(other.interference_),
      dirty_(other.dirty_),
      grid_(other.grid_),
      grid_built_(other.grid_built_),
      options_(other.options_),
      stats_(other.stats_) {
  // batch_arena_ is deliberately fresh: scratch never travels with copies.
}

Scenario& Scenario::operator=(const Scenario& other) {
  if (this == &other) return *this;
  nodes_ = other.nodes_;
  adjacency_ = other.adjacency_;
  edge_count_ = other.edge_count_;
  max_radius2_ = other.max_radius2_;
  interference_ = other.interference_;
  dirty_ = other.dirty_;
  grid_ = other.grid_;
  grid_built_ = other.grid_built_;
  options_ = other.options_;
  stats_ = other.stats_;
  batch_arena_.reset();
  return *this;
}

void Scenario::ensure_grid() {
  if (grid_built_) return;
  // id == slot, so the slot-ordered columns are the id-ordered point set.
  grid_.build(pick_cell_size(nodes_.radii2()), nodes_.xs(), nodes_.ys(),
              nodes_.radii2());
  grid_built_ = true;
}

void Scenario::set_node_radius2(NodeId u, double new_r2) {
  nodes_.set_radius2(u, new_r2);
  if (grid_built_) grid_.set_weight(u, new_r2);
}

void Scenario::ensure_cache() {
  if (!dirty_) return;
  const obs::ScopedTimer timer(stats_.full_ns);
  interference_ =
      interference_vector_squared(nodes_.positions(), nodes_.radii2(), options_);
  max_radius2_ = 0.0;
  for (double r2 : nodes_.radii2()) max_radius2_ = std::max(max_radius2_, r2);
  dirty_ = false;
  ++stats_.full_evaluations;
}

bool Scenario::delta_deferred(geom::Vec2 center, double radius2) {
  if (grid_.estimate_in_disk(center, std::sqrt(std::max(radius2, 0.0))) >
      options_.touched_threshold(nodes_.size())) {
    dirty_ = true;
    ++stats_.deferred_mutations;
    return true;
  }
  return false;
}

void Scenario::apply_disk_delta(NodeId u, geom::Vec2 center, double old_r2,
                                double new_r2) {
  if (dirty_) return;
  if (old_r2 <= 0.0 && new_r2 <= 0.0) return;
  if (delta_deferred(center, std::max(old_r2, new_r2))) return;
  run_disk_delta(u, center, old_r2, new_r2);
}

void Scenario::run_disk_delta(NodeId exclude, geom::Vec2 center, double old_r2,
                              double new_r2) {
  // Un-deferred kernel: also runs on pool workers during apply_batch.
  // Region-disjoint waves guarantee the interference_ writes never overlap;
  // the stats counters are relaxed atomics.
  const geom::DeltaResult r = geom::apply_disk_delta(
      grid_, center, old_r2, new_r2, exclude, interference_.data());
  stats_.cells_touched += r.cells;
  stats_.nodes_touched += r.visited;
}

void Scenario::set_radius(NodeId u, double new_r2) {
  const double old_r2 = nodes_.radius2(u);
  if (old_r2 == new_r2) return;
  apply_disk_delta(u, nodes_.position(u), old_r2, new_r2);
  set_node_radius2(u, new_r2);
  if (new_r2 > max_radius2_) {
    max_radius2_ = new_r2;
  } else if (old_r2 == max_radius2_ && new_r2 < old_r2) {
    // The argmax node shrank: rescan. Rare (once per removal of the
    // widest-reaching node), so the O(n) pass amortises away.
    max_radius2_ = 0.0;
    for (double r2 : nodes_.radii2()) max_radius2_ = std::max(max_radius2_, r2);
  }
}

double Scenario::farthest_neighbor_squared(NodeId u) const {
  double best = 0.0;
  const geom::Vec2 p = nodes_.position(u);
  for (NodeId w : adjacency_[u]) {
    best = std::max(best, geom::dist2(p, nodes_.position(w)));
  }
  return best;
}

std::uint32_t Scenario::recount_coverage(NodeId v) {
  if (delta_deferred(nodes_.position(v), max_radius2_)) return 0;
  return run_recount(v);
}

std::uint32_t Scenario::run_recount(NodeId v) {
  // Un-deferred kernel: also runs on pool workers during apply_batch (pure
  // reads of the frozen store; the caller owns interference_[v]). The grid
  // weights mirror the radius column, so the coverage kernel needs no
  // side lookups.
  const geom::CoverageResult r =
      geom::count_covering(grid_, nodes_.position(v), max_radius2_, v);
  stats_.cells_touched += r.cells;
  stats_.nodes_touched += r.visited;
  return r.covered;
}

NodeId Scenario::add_node(geom::Vec2 position) {
  ensure_grid();
  const obs::ScopedTimer timer(stats_.incremental_ns);
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.insert(id, position, 0.0);
  adjacency_.emplace_back();
  grid_.insert(id, position, 0.0);
  if (!dirty_) {
    const std::uint32_t covered = recount_coverage(id);
    interference_.push_back(dirty_ ? 0u : covered);
    if (!dirty_) ++stats_.incremental_updates;
  } else {
    interference_.push_back(0u);
  }
  return id;
}

NodeId Scenario::remove_node(NodeId v) {
  assert(v < nodes_.size());
  ensure_grid();
  const obs::ScopedTimer timer(stats_.incremental_ns);
  const std::size_t count_before = nodes_.size();
  // Retire incident edges: each neighbor's disk shrinks to its new
  // farthest neighbor, and v's own disk shrinks to nothing — after this,
  // v no longer transmits and nobody's radius depends on it.
  for (const NodeId w : adjacency_[v]) {
    auto& aw = adjacency_[w];
    aw.erase(std::find(aw.begin(), aw.end(), v));
    --edge_count_;
  }
  const std::vector<NodeId> former_neighbors = std::move(adjacency_[v]);
  adjacency_[v].clear();
  set_radius(v, 0.0);
  for (const NodeId w : former_neighbors) {
    set_radius(w, farthest_neighbor_squared(w));
  }
  // Swap-with-last keeps ids dense: the last node takes over id v (columns
  // compact in the store, the grid renames in place).
  const auto last = static_cast<NodeId>(count_before - 1);
  grid_.erase(v);
  nodes_.remove(v);
  NodeId renamed = kInvalidNode;
  if (v != last) {
    nodes_.relabel(last, v);
    adjacency_[v] = std::move(adjacency_[last]);
    for (NodeId w : adjacency_[v]) {
      std::replace(adjacency_[w].begin(), adjacency_[w].end(), last, v);
    }
    grid_.relabel(last, v);
    renamed = last;
  }
  if (interference_.size() == count_before) {
    if (v != last) interference_[v] = interference_[last];
    interference_.pop_back();
  }
  adjacency_.pop_back();
  if (!dirty_) ++stats_.incremental_updates;
  return renamed;
}

bool Scenario::add_edge(NodeId u, NodeId v) {
  assert(u < nodes_.size() && v < nodes_.size());
  if (u == v || has_edge(u, v)) return false;
  ensure_grid();
  const obs::ScopedTimer timer(stats_.incremental_ns);
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++edge_count_;
  const double d2 = geom::dist2(nodes_.position(u), nodes_.position(v));
  if (d2 > nodes_.radius2(u)) set_radius(u, d2);
  if (d2 > nodes_.radius2(v)) set_radius(v, d2);
  if (!dirty_) ++stats_.incremental_updates;
  return true;
}

bool Scenario::remove_edge(NodeId u, NodeId v) {
  assert(u < nodes_.size() && v < nodes_.size());
  auto& au = adjacency_[u];
  const auto it = std::find(au.begin(), au.end(), v);
  if (it == au.end()) return false;
  ensure_grid();
  const obs::ScopedTimer timer(stats_.incremental_ns);
  au.erase(it);
  auto& av = adjacency_[v];
  av.erase(std::find(av.begin(), av.end(), u));
  --edge_count_;
  set_radius(u, farthest_neighbor_squared(u));
  set_radius(v, farthest_neighbor_squared(v));
  if (!dirty_) ++stats_.incremental_updates;
  return true;
}

void Scenario::move_node(NodeId v, geom::Vec2 position) {
  assert(v < nodes_.size());
  if (nodes_.position(v) == position) return;
  ensure_grid();
  const obs::ScopedTimer timer(stats_.incremental_ns);
  // Retire the disk at the old position...
  const double old_r2 = nodes_.radius2(v);
  apply_disk_delta(v, nodes_.position(v), old_r2, 0.0);
  set_node_radius2(v, 0.0);
  if (old_r2 > 0.0 && old_r2 == max_radius2_) {
    max_radius2_ = 0.0;
    for (double r2 : nodes_.radii2()) max_radius2_ = std::max(max_radius2_, r2);
  }
  nodes_.set_position(v, position);
  grid_.move(v, position);
  // ...re-apply it at the new one, and re-derive every affected radius.
  set_radius(v, farthest_neighbor_squared(v));
  for (NodeId w : adjacency_[v]) set_radius(w, farthest_neighbor_squared(w));
  // The node now sits inside a different set of disks.
  if (!dirty_) {
    const std::uint32_t covered = recount_coverage(v);
    if (!dirty_) {
      interference_[v] = covered;
      ++stats_.incremental_updates;
    }
  }
}

NodeId Scenario::apply(const Mutation& mutation) {
  const std::size_t n = nodes_.size();
  switch (mutation.kind) {
    case Mutation::Kind::kAddNode:
      return add_node(mutation.position);
    case Mutation::Kind::kRemoveNode:
      if (mutation.v >= n) return kInvalidNode;
      return remove_node(mutation.v);
    case Mutation::Kind::kAddEdge:
      if (mutation.u >= n || mutation.v >= n) return kInvalidNode;
      add_edge(mutation.u, mutation.v);
      return kInvalidNode;
    case Mutation::Kind::kRemoveEdge:
      if (mutation.u >= n || mutation.v >= n) return kInvalidNode;
      remove_edge(mutation.u, mutation.v);
      return kInvalidNode;
    case Mutation::Kind::kMoveNode:
      if (mutation.v >= n) return kInvalidNode;
      move_node(mutation.v, mutation.position);
      return kInvalidNode;
  }
  return kInvalidNode;
}

bool Scenario::has_edge(NodeId u, NodeId v) const {
  const auto& a = adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u]
                                                               : adjacency_[v];
  const NodeId target = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), target) != a.end();
}

graph::Graph Scenario::topology() const {
  graph::Graph g(nodes_.size());
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    for (NodeId w : adjacency_[u]) {
      if (u < w) g.add_edge(u, w);
    }
  }
  return g;
}

NodeId Scenario::nearest_node(geom::Vec2 p, NodeId exclude) {
  ensure_grid();
  return grid_.nearest(p, exclude);
}

std::span<const std::uint32_t> Scenario::interference() {
  ensure_cache();
  return interference_;
}

std::uint32_t Scenario::interference_of(NodeId v) {
  assert(v < nodes_.size());
  ensure_cache();
  return interference_[v];
}

std::uint32_t Scenario::max_interference() {
  ensure_cache();
  std::uint32_t max = 0;
  for (std::uint32_t i : interference_) max = std::max(max, i);
  return max;
}

std::uint64_t Scenario::total_interference() {
  ensure_cache();
  std::uint64_t total = 0;
  for (std::uint32_t i : interference_) total += i;
  return total;
}

InterferenceSummary Scenario::summary() {
  ensure_cache();
  return InterferenceSummary::from_per_node(interference_);
}

Snapshot Scenario::snapshot() {
  Snapshot s;
  s.cache_valid = !dirty_;
  s.grid_built = grid_built_;
  s.cell_size = grid_built_ ? grid_.cell_size() : 0.0;
  s.options = options_;
  s.edge_count = edge_count_;
  s.points = nodes_.positions();
  s.adjacency = adjacency_;
  s.radii2.assign(nodes_.radii2().begin(), nodes_.radii2().end());
  if (!dirty_) s.interference = interference_;
  ++stats_.snapshots;
  return s;
}

bool Scenario::restore(const Snapshot& snapshot, std::string* error) {
  std::string local_error;
  if (!snapshot.validate(local_error)) {
    if (error != nullptr) *error = local_error;
    return false;
  }
  nodes_ = NodeSoA();
  nodes_.reserve(snapshot.points.size());
  max_radius2_ = 0.0;
  for (NodeId v = 0; v < snapshot.points.size(); ++v) {
    nodes_.insert(v, snapshot.points[v], snapshot.radii2[v]);
    max_radius2_ = std::max(max_radius2_, snapshot.radii2[v]);
  }
  adjacency_ = snapshot.adjacency;
  edge_count_ = snapshot.edge_count;
  interference_ = snapshot.interference;
  dirty_ = !snapshot.cache_valid;
  options_ = snapshot.options;
  grid_built_ = false;
  if (snapshot.grid_built) {
    grid_.build(snapshot.cell_size, nodes_.xs(), nodes_.ys(),
                nodes_.radii2());
    grid_built_ = true;
  } else {
    grid_.clear(1.0);
  }
  ++stats_.restores;
  return true;
}

io::Json Scenario::stats_json() const {
  io::JsonObject o;
  o["nodes"] = io::Json(nodes_.size());
  o["edges"] = io::Json(edge_count_);
  o["grid_cell_size"] = io::Json(grid_built_ ? grid_.cell_size() : 0.0);
  o["counters"] = stats_.to_json();
  o["grid"] = grid_.stats().to_json();
  return io::Json(std::move(o));
}

}  // namespace rim::core
