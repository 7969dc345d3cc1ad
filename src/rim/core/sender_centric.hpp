#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rim/core/interference.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"

/// \file sender_centric.hpp
/// The sender-centric interference model of Burkhart, von Rickenbach,
/// Wattenhofer, Zollinger (MobiHoc 2004) — the comparator our paper argues
/// against.
///
/// There, interference is attributed to *links*: communication over edge
/// e = {u, v} is assumed to happen at power just reaching the partner, so it
/// disturbs every node inside D(u, |uv|) ∪ D(v, |uv|). The coverage of the
/// edge is the number of such nodes (the endpoints themselves excluded,
/// following the original definition's "affected by other nodes" reading),
/// and the interference of a topology is the maximum edge coverage.
///
/// The Figure 1 experiment contrasts this measure's fragility (one extra
/// node can push it from O(1) to n) with the receiver-centric model's +1
/// robustness.

namespace rim::core {

/// Number of nodes (other than u and v themselves) covered by
/// D(u,|uv|) ∪ D(v,|uv|).
[[nodiscard]] std::uint32_t edge_coverage(std::span<const geom::Vec2> points,
                                          graph::Edge e);

struct SenderCentricSummary {
  std::vector<std::uint32_t> per_edge;  ///< Cov(e) per edge.
  std::uint32_t max = 0;                ///< I(G') in the MobiHoc'04 model.
  double mean = 0.0;
};

[[nodiscard]] SenderCentricSummary evaluate_sender_centric(
    const graph::Graph& topology, std::span<const geom::Vec2> points);

/// Strategy-aware evaluation: options.resolve(n) == kBrute runs the O(E*n)
/// pairwise loops above; kGrid and kParallel run one per-edge kernel over
/// a frozen geom::GridIndex with cells of twice the median edge length
/// instead — one walk over the row spans of the box around D(u) and D(v),
/// counting the points either disk's test accepts with the SIMD distance
/// kernel, O(E * disk-occupancy) total, which is what makes the
/// sender-centric comparator feasible on million-node deployments (E23).
/// Edges run in the index's cell order of their first endpoint, so
/// consecutive walks share cache lines. kGrid runs the edges serially,
/// kParallel with parallel_for on ThreadPool::shared() (never call it from
/// inside a task of that pool, DESIGN.md §8). Every path counts the
/// identical exact predicate, so per_edge is the same.
[[nodiscard]] SenderCentricSummary evaluate_sender_centric(
    const graph::Graph& topology, std::span<const geom::Vec2> points,
    const EvalOptions& options);

}  // namespace rim::core
