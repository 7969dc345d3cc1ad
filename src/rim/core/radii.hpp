#pragma once

#include <span>
#include <vector>

#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"

/// \file radii.hpp
/// Per-node transmission radii induced by a topology.
///
/// Section 3 of the paper: in a resulting topology G' every node u sets its
/// transmission power so as to just reach its farthest neighbor,
///   r_u = max_{v in N_u} |u, v|,
/// and consequently affects exactly the nodes inside the disk D(u, r_u).
/// Isolated nodes have r_u = 0 (they transmit nothing).

namespace rim::core {

/// r_u for every node of \p topology with positions \p points.
[[nodiscard]] std::vector<double> transmission_radii(
    const graph::Graph& topology, std::span<const geom::Vec2> points);

/// r_u^2 for every node, computed exactly as max over neighbors of the
/// squared distance — no sqrt/square roundtrip. The interference evaluators
/// use this form so that a node's farthest neighbor is always counted as
/// covered (comparing dist2 <= sqrt(dist2)^2 can fail by one ulp).
[[nodiscard]] std::vector<double> transmission_radii_squared(
    const graph::Graph& topology, std::span<const geom::Vec2> points);

/// Cell side for a uniform grid over the disks of squared radii \p radii2,
/// each scaled by \p scale (the SINR scatter passes its cutoff factor): the
/// median positive scaled radius, or 1 when no radius is positive. The
/// choice changes only speed, never an evaluation's result.
[[nodiscard]] double pick_cell_size(std::span<const double> radii2,
                                    double scale = 1.0);

/// Energy proxy: sum over nodes of r_u^alpha (alpha = path-loss exponent,
/// conventionally 2..4). Topology control papers use this as the power cost
/// of a topology; reported alongside interference by the experiment harness.
[[nodiscard]] double total_power(std::span<const double> radii, double alpha = 2.0);

}  // namespace rim::core
