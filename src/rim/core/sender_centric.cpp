#include "rim/core/sender_centric.hpp"

#include <algorithm>
#include <cmath>

#include "rim/geom/grid_index.hpp"
#include "rim/parallel/parallel_for.hpp"

namespace rim::core {

namespace {

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

std::vector<std::uint32_t> coverage_vector(const graph::Graph& topology,
                                           std::span<const geom::Vec2> points) {
  std::vector<std::uint32_t> cov;
  cov.reserve(topology.edge_count());
  for (graph::Edge e : topology.edges()) cov.push_back(edge_coverage(points, e));
  return cov;
}

SenderCentricSummary evaluate_sender_centric(const graph::Graph& topology,
                                             std::span<const geom::Vec2> points) {
  return summarize(coverage_vector(topology, points));
}

SenderCentricSummary evaluate_sender_centric(const graph::Graph& topology,
                                             std::span<const geom::Vec2> points,
                                             const EvalOptions& options) {
  const Strategy strategy = options.resolve(points.size());
  if (strategy == Strategy::kBrute || topology.edge_count() == 0) {
    return evaluate_sender_centric(topology, points);
  }

  // Grid path: cells keyed by the median edge length (the query disks are
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
  const geom::GridIndex index(points, std::max(std::sqrt(*mid), 1e-12));

  // Per-edge union count |D(u,|uv|) ∪ D(v,|uv|)|: all of D(u), then only
  // the points of D(v) that fail D(u)'s own test dist2(w, u) <= r2, so a
  // point in both disks counts once. The index is immutable and each edge
  // writes only its own slot, so edges run in any order on any thread.
  std::vector<std::uint32_t> per_edge(edges.size(), 0);
  const auto cover = [&](std::size_t i) {
    const graph::Edge e = edges[i];
    const geom::Vec2 pu = points[e.u];
    const geom::Vec2 pv = points[e.v];
    const double r2 = geom::dist2(pu, pv);
    std::uint32_t count = 0;
    index.for_each_in_disk_squared(pu, r2, [&](NodeId w) {
      if (w != e.u && w != e.v) ++count;
    });
    index.for_each_in_disk_squared(pv, r2, [&](NodeId w) {
      if (w != e.u && w != e.v && !(geom::dist2(points[w], pu) <= r2)) {
        ++count;
      }
    });
    per_edge[i] = count;
  };
  if (strategy == Strategy::kParallel) {
    parallel::parallel_for(0, edges.size(), cover);
  } else {
    for (std::size_t i = 0; i < edges.size(); ++i) cover(i);
  }
  return summarize(std::move(per_edge));
}

}  // namespace rim::core
