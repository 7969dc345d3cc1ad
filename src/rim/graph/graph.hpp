#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "rim/common/types.hpp"

/// \file graph.hpp
/// Undirected simple graph on a dense node set 0..n-1.
///
/// This is the representation used for both the input communication graph
/// (typically a Unit Disk Graph) and for the resulting topologies produced
/// by topology-control algorithms. The paper's model (Section 3) only
/// considers symmetric links, so the structure is strictly undirected.

namespace rim::graph {

/// An undirected edge; canonical form keeps u < v.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;

  [[nodiscard]] constexpr Edge canonical() const {
    return u <= v ? Edge{u, v} : Edge{v, u};
  }
  friend constexpr bool operator==(Edge a, Edge b) = default;
  friend constexpr auto operator<=>(Edge a, Edge b) = default;
};

class Graph {
 public:
  Graph() = default;

  /// An edgeless graph on \p node_count nodes.
  explicit Graph(std::size_t node_count) : adjacency_(node_count) {}

  /// Graph with the given edges. Duplicate and self-loop edges are rejected
  /// with an assertion in debug builds and ignored in release builds.
  Graph(std::size_t node_count, std::span<const Edge> edges);

  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Add the undirected edge {u, v}. Returns false (and leaves the graph
  /// unchanged) if the edge already exists or u == v.
  bool add_edge(NodeId u, NodeId v);

  /// Remove the undirected edge {u, v} if present; returns whether it was.
  ///
  /// Contract: the edge list is compacted in place, so the positional
  /// EdgeId of every edge stored after the removed one shifts down by one.
  /// Never hold an EdgeId (an index into edges()) across remove_edge —
  /// re-derive indices from edges() afterwards. Removal is O(E) for the
  /// edge-list scan plus O(deg) for the adjacency fixups; adjacency and
  /// edge list are kept consistent (asserted in debug builds).
  bool remove_edge(NodeId u, NodeId v);

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Neighbors of \p u in insertion order.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return adjacency_[u];
  }

  [[nodiscard]] std::size_t degree(NodeId u) const { return adjacency_[u].size(); }

  /// Maximum degree over all nodes (0 for the empty graph). In the paper's
  /// notation this is Δ when applied to the input UDG.
  [[nodiscard]] std::size_t max_degree() const;

  /// All edges, in insertion order, canonical (u < v). The index of an
  /// edge in this span is its EdgeId; remove_edge invalidates the ids of
  /// all edges inserted after the removed one (see remove_edge).
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

  /// Append an isolated node, returning its id.
  NodeId add_node();

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<Edge> edges_;
};

}  // namespace rim::graph
