#include "rim/core/sender_centric.hpp"

#include <algorithm>
#include <cmath>

#include "rim/geom/grid_index.hpp"
#include "rim/parallel/parallel_for.hpp"
#include "rim/simd/simd.hpp"

namespace rim::core {

namespace {

/// Chunk length of the d2 staging buffers (L1-resident, as in the grid
/// kernels).
constexpr std::size_t kChunk = 128;

SenderCentricSummary summarize(std::vector<std::uint32_t> per_edge) {
  SenderCentricSummary summary;
  summary.per_edge = std::move(per_edge);
  std::uint64_t total = 0;
  for (std::uint32_t c : summary.per_edge) {
    summary.max = std::max(summary.max, c);
    total += c;
  }
  summary.mean = summary.per_edge.empty()
                     ? 0.0
                     : static_cast<double>(total) /
                           static_cast<double>(summary.per_edge.size());
  return summary;
}

}  // namespace

std::uint32_t edge_coverage(std::span<const geom::Vec2> points, graph::Edge e) {
  const geom::Vec2 pu = points[e.u];
  const geom::Vec2 pv = points[e.v];
  const double r2 = geom::dist2(pu, pv);
  std::uint32_t count = 0;
  for (NodeId w = 0; w < points.size(); ++w) {
    if (w == e.u || w == e.v) continue;
    if (geom::dist2(points[w], pu) <= r2 || geom::dist2(points[w], pv) <= r2) {
      ++count;
    }
  }
  return count;
}

SenderCentricSummary evaluate_sender_centric(const graph::Graph& topology,
                                             std::span<const geom::Vec2> points) {
  std::vector<std::uint32_t> cov;
  cov.reserve(topology.edge_count());
  for (graph::Edge e : topology.edges()) cov.push_back(edge_coverage(points, e));
  return summarize(std::move(cov));
}

SenderCentricSummary evaluate_sender_centric(const graph::Graph& topology,
                                             std::span<const geom::Vec2> points,
                                             const EvalOptions& options) {
  const Strategy strategy = options.resolve(points.size());
  if (strategy == Strategy::kBrute || topology.edge_count() == 0) {
    return evaluate_sender_centric(topology, points);
  }

  // Grid path: cells of twice the median edge length (the query disks are
  // edge-length disks, so this is the same heuristic the receiver-centric
  // grid applies to transmission disks).
  const std::span<const graph::Edge> edges = topology.edges();
  std::vector<double> lengths2;
  lengths2.reserve(edges.size());
  for (const graph::Edge e : edges) {
    lengths2.push_back(geom::dist2(points[e.u], points[e.v]));
  }
  const auto mid =
      lengths2.begin() + static_cast<std::ptrdiff_t>(lengths2.size() / 2);
  std::nth_element(lengths2.begin(), mid, lengths2.end());
  const geom::GridIndex index(points, std::max(std::sqrt(*mid) * 2.0, 1e-12));
  const double* xs = index.xs().data();
  const double* ys = index.ys().data();
  const std::span<const NodeId> ids = index.ids();

  // Per-edge union count |D(u,|uv|) ∪ D(v,|uv|)| less the endpoints: one
  // walk over the row spans of the two disks' joint bounding box, counting
  // a point when it passes either disk's test d2 <= r2. The distances come
  // from the SIMD kernel, which computes d2 exactly as geom::dist2 does.
  // The index is immutable and each edge writes only its own slot, so
  // edges run in any order on any thread.
  std::vector<std::uint32_t> per_edge(edges.size(), 0);
  // Edges run in the index's slot order of their first endpoint (a
  // counting sort), so consecutive walks share cells and cache lines.
  std::vector<std::uint32_t> slot_of(points.size());
  for (std::size_t s = 0; s < points.size(); ++s) {
    slot_of[ids[s]] = static_cast<std::uint32_t>(s);
  }
  std::vector<std::uint32_t> start(points.size() + 1, 0);
  for (const graph::Edge e : edges) ++start[slot_of[e.u] + 1];
  for (std::size_t s = 0; s < points.size(); ++s) start[s + 1] += start[s];
  std::vector<std::uint32_t> by_cell(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    by_cell[start[slot_of[edges[i].u]]++] = static_cast<std::uint32_t>(i);
  }
  const auto cover = [&](std::size_t j) {
    const std::size_t i = by_cell[j];
    const graph::Edge e = edges[i];
    const geom::Vec2 pu = points[e.u];
    const geom::Vec2 pv = points[e.v];
    const double r2 = geom::dist2(pu, pv);
    const double walk = geom::walk_radius(r2);
    const geom::Aabb both{
        {std::min(pu.x, pv.x) - walk, std::min(pu.y, pv.y) - walk},
        {std::max(pu.x, pv.x) + walk, std::max(pu.y, pv.y) + walk}};
    std::uint32_t count = 0;
    double d2u[kChunk];
    double d2v[kChunk];
    index.for_each_row_span(both, [&](std::size_t begin, std::size_t end) {
      for (std::size_t base = begin; base < end; base += kChunk) {
        const std::size_t m = std::min(kChunk, end - base);
        simd::squared_distances(xs + base, ys + base, m, pu.x, pu.y, d2u);
        simd::squared_distances(xs + base, ys + base, m, pv.x, pv.y, d2v);
        for (std::size_t k = 0; k < m; ++k) {
          count += static_cast<std::uint32_t>(d2u[k] <= r2) |
                   static_cast<std::uint32_t>(d2v[k] <= r2);
        }
      }
    });
    // The endpoints are always counted: each sits at d2 == 0 from its own
    // centre.
    count -= 2;
    per_edge[i] = count;
  };
  if (strategy == Strategy::kParallel) {
    parallel::parallel_for(0, by_cell.size(), cover);
  } else {
    for (std::size_t j = 0; j < by_cell.size(); ++j) cover(j);
  }
  return summarize(std::move(per_edge));
}

}  // namespace rim::core
