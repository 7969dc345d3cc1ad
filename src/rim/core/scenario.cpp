#include "rim/core/scenario.hpp"

#include <algorithm>
#include <cassert>

#include "rim/core/radii.hpp"
#include "rim/core/snapshot.hpp"

namespace rim::core {

io::Json ScenarioStats::to_json() const {
  io::JsonObject o;
  o["incremental_updates"] = incremental_updates.to_json();
  o["deferred_mutations"] = deferred_mutations.to_json();
  o["full_evaluations"] = full_evaluations.to_json();
  o["nodes_touched"] = nodes_touched.to_json();
  o["cells_touched"] = cells_touched.to_json();
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
    : points_(points.begin(), points.end()),
      radii2_(points.size(), 0.0),
      adjacency_(topology.node_count()),
      edge_count_(topology.edge_count()),
      options_(options) {
  assert(topology.node_count() == points.size());
  for (NodeId u = 0; u < topology.node_count(); ++u) {
    const auto neighbors = topology.neighbors(u);
    adjacency_[u].assign(neighbors.begin(), neighbors.end());
    const double r2 = farthest_neighbor_squared(u);
    radii2_[u] = r2;
    max_radius2_ = std::max(max_radius2_, r2);
  }
}

Scenario::Scenario(const Scenario& other)
    : points_(other.points_),
      radii2_(other.radii2_),
      adjacency_(other.adjacency_),
      edge_count_(other.edge_count_),
      max_radius2_(other.max_radius2_),
      interference_(other.interference_),
      dirty_(other.dirty_),
      grid_(other.grid_),
      grid_built_(other.grid_built_),
      options_(other.options_),
      stats_(other.stats_) {
  // The batch scratch is deliberately fresh: it never travels with copies.
}

Scenario& Scenario::operator=(const Scenario& other) {
  if (this == &other) return *this;
  points_ = other.points_;
  radii2_ = other.radii2_;
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
  grid_.build(pick_cell_size(radii2_), points_, radii2_);
  grid_built_ = true;
}

void Scenario::set_node_radius2(NodeId u, double new_r2) {
  radii2_[u] = new_r2;
  if (grid_built_) grid_.set_weight(u, new_r2);
}

void Scenario::ensure_cache() {
  if (!dirty_) return;
  const obs::ScopedTimer timer(stats_.full_ns);
  interference_ = interference_vector_squared(points_, radii2_, options_);
  max_radius2_ = 0.0;
  for (double r2 : radii2_) max_radius2_ = std::max(max_radius2_, r2);
  dirty_ = false;
  ++stats_.full_evaluations;
}

double Scenario::farthest_neighbor_squared(NodeId u) const {
  double best = 0.0;
  const geom::Vec2 p = points_[u];
  for (NodeId w : adjacency_[u]) {
    best = std::max(best, geom::dist2(p, points_[w]));
  }
  return best;
}

bool Scenario::apply_one(const Mutation& mutation) {
  return apply_batch({&mutation, 1}, nullptr).applied != 0;
}

NodeId Scenario::apply(const Mutation& mutation) {
  const auto n = static_cast<NodeId>(points_.size());
  if (!apply_one(mutation)) return kInvalidNode;
  if (mutation.kind == Mutation::Kind::kAddNode) return n;
  if (mutation.kind == Mutation::Kind::kRemoveNode && mutation.v != n - 1) {
    return n - 1;
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
  graph::Graph g(points_.size());
  for (NodeId u = 0; u < points_.size(); ++u) {
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
  assert(v < points_.size());
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
  s.points = points_;
  s.adjacency = adjacency_;
  s.radii2 = radii2_;
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
  points_ = snapshot.points;
  radii2_ = snapshot.radii2;
  max_radius2_ = 0.0;
  for (double r2 : radii2_) max_radius2_ = std::max(max_radius2_, r2);
  adjacency_ = snapshot.adjacency;
  edge_count_ = snapshot.edge_count;
  interference_ = snapshot.interference;
  dirty_ = !snapshot.cache_valid;
  options_ = snapshot.options;
  grid_built_ = false;
  if (snapshot.grid_built) {
    grid_.build(snapshot.cell_size, points_, radii2_);
    grid_built_ = true;
  } else {
    grid_.clear(1.0);
  }
  ++stats_.restores;
  return true;
}

io::Json Scenario::stats_json() const {
  io::JsonObject o;
  o["nodes"] = io::Json(points_.size());
  o["edges"] = io::Json(edge_count_);
  o["grid_cell_size"] = io::Json(grid_built_ ? grid_.cell_size() : 0.0);
  o["counters"] = stats_.to_json();
  o["grid"] = grid_.stats().to_json();
  return io::Json(std::move(o));
}

}  // namespace rim::core
