#pragma once

#include <span>

#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"

/// \file nearest_neighbor_forest.hpp
/// The Nearest Neighbor Forest: every node establishes a symmetric link to
/// its nearest UDG neighbor.
///
/// Section 4 of the paper observes that (almost) all known symmetric-link
/// topology-control algorithms contain this structure as a subgraph — and
/// Theorem 4.1 shows that this alone already costs a factor Ω(n) in
/// receiver-centric interference on the two-exponential-chains instance.

namespace rim::topology {

/// Build the NNF over \p points restricted to edges of \p udg. Distance ties
/// break toward the smaller node id. Nodes with no UDG neighbor stay
/// isolated. The result is a forest or pseudo-forest union of NN links
/// (mutual nearest pairs contribute one edge).
[[nodiscard]] graph::Graph nearest_neighbor_forest(
    std::span<const geom::Vec2> points, const graph::Graph& udg);

/// Unrestricted NNF: every node links to its globally nearest other node
/// (ties toward the smaller id, matching the UDG form). Found per node by
/// geom::GridIndex::nearest, an expanding-ring search over one frozen
/// cell-sorted index, instead of scanning a neighbor list, so million-node
/// deployments (E23) skip the O(n^2)-edge UDG build entirely. Equals the
/// UDG form for any UDG radius at least the largest nearest-neighbour
/// distance, adjacency order included.
[[nodiscard]] graph::Graph nearest_neighbor_forest(
    std::span<const geom::Vec2> points);

}  // namespace rim::topology
