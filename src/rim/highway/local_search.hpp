#pragma once

#include <cstdint>
#include <span>

#include "rim/core/interference.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"

/// \file local_search.hpp
/// Edge-swap local search for low-interference spanning trees.
///
/// Not part of the paper's algorithms — a heuristic baseline the experiment
/// harness uses to approximate the optimum where exhaustive search is out of
/// reach (n > 9). Starting from any connectivity-preserving tree/forest, it
/// repeatedly removes one tree edge and reconnects the two sides with the
/// UDG edge that minimises (max interference, total interference),
/// accepting strictly improving swaps until a local optimum.

namespace rim::highway {

struct LocalSearchParams {
  std::size_t max_rounds = 64;  ///< full improvement sweeps before giving up
  /// Candidate replacement edges evaluated per removed edge: the k shortest
  /// UDG edges crossing the cut (0 = all). Each candidate costs a full
  /// interference evaluation, so dense UDGs need a cap.
  std::size_t max_candidates_per_cut = 0;
  /// Evaluation configuration for the probing Scenario — the shared
  /// core::EvalOptions surface. Configure with the builder setters, e.g.
  /// `core::EvalOptions{}.with_strategy(core::Strategy::kGrid)`.
  core::EvalOptions eval{};
};

struct LocalSearchResult {
  graph::Graph tree;
  std::uint32_t interference = 0;
  std::size_t swaps_applied = 0;
  bool reached_local_optimum = false;
  /// Observability: candidate swaps probed and wall time spent probing.
  std::size_t candidates_probed = 0;
  std::uint64_t probe_ns = 0;
};

/// Improve \p seed (must be a forest spanning the UDG's components; its
/// edges must be UDG edges). Deterministic.
[[nodiscard]] LocalSearchResult local_search_min_interference(
    std::span<const geom::Vec2> points, const graph::Graph& udg,
    const graph::Graph& seed, LocalSearchParams params = {});

}  // namespace rim::highway
