#include "rim/graph/graph.hpp"

#include <algorithm>
#include <cassert>

namespace rim::graph {

Graph::Graph(std::size_t node_count, std::span<const Edge> edges)
    : adjacency_(node_count) {
  for (Edge e : edges) {
    const bool added = add_edge(e.u, e.v);
    assert(added && "duplicate or degenerate edge in Graph construction");
    (void)added;
  }
}

bool Graph::add_edge(NodeId u, NodeId v) {
  assert(u < node_count() && v < node_count());
  if (u == v || has_edge(u, v)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  edges_.push_back(Edge{u, v}.canonical());
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  assert(u < node_count() && v < node_count());
  const Edge target = Edge{u, v}.canonical();
  const auto it = std::find(edges_.begin(), edges_.end(), target);
  if (it == edges_.end()) return false;
  edges_.erase(it);
  // The edge list and both adjacency lists must agree; a missing adjacency
  // entry here means the two representations diverged.
  auto& au = adjacency_[u];
  const auto at_u = std::find(au.begin(), au.end(), v);
  assert(at_u != au.end() && "edge list and adjacency out of sync");
  au.erase(at_u);
  auto& av = adjacency_[v];
  const auto at_v = std::find(av.begin(), av.end(), u);
  assert(at_v != av.end() && "edge list and adjacency out of sync");
  av.erase(at_v);
  return true;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  assert(u < node_count() && v < node_count());
  // Scan the smaller adjacency list.
  const auto& a = adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u]
                                                               : adjacency_[v];
  const NodeId target = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), target) != a.end();
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (const auto& a : adjacency_) best = std::max(best, a.size());
  return best;
}

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

}  // namespace rim::graph
