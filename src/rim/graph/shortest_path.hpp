#pragma once

#include <limits>
#include <span>
#include <vector>

#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"

/// \file shortest_path.hpp
/// Euclidean single-source shortest paths (Dijkstra). Used for spanner /
/// stretch measurements and by LISE's spanner test.

namespace rim::graph {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Dijkstra from \p source with Euclidean edge lengths. dist[v] ==
/// kUnreachable when v is not reachable.
[[nodiscard]] std::vector<double> euclidean_dijkstra(
    const Graph& g, NodeId source, std::span<const geom::Vec2> points);

}  // namespace rim::graph
