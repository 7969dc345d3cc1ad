#pragma once

#include <cstdint>
#include <span>

#include "rim/core/interference.hpp"
#include "rim/core/scenario.hpp"

/// \file assessor.hpp
/// The one assessment front door of the engine.
///
/// Interference assessment used to be reachable through several overlapping
/// entry points that grew independently; core::Assessor is the single
/// surviving interface (the legacy free functions and engine methods were
/// retired per the DESIGN.md §10.6 removal table):
///
///  - assess(Graph, points): one-shot summary of a topology — radii derived
///    from farthest neighbors, evaluated by interference_vector_squared,
///    the one full evaluator that Scenario's fallback also calls.
///  - assess(Scenario&, Mutation...): impact of a mutation sequence,
///    measured on a probe copy without disturbing the scenario.
///  - assess_addition / assess_removal: the structured churn reports for
///    experiments E1/E11, including the sender-centric comparison.
///
/// Model selection (DESIGN.md §12): EvalOptions.model picks which
/// interference model the assessment runs — kReceiverCentric (the paper's
/// count, the default), kSenderCentric (MobiHoc'04 edge coverage projected
/// onto nodes), or kSinr (accumulated path-loss power, core/sinr.hpp; the
/// integer per_node is the significant-interferer count). All three return InterferenceSummary, so comparators (E23)
/// evaluate one deployment under three models through one call shape:
///
///   Assessor{}.assess(topology, points,
///                     EvalOptions{}.with_model(Model::kSinr))
///
/// New code constructs an Assessor — typically `Assessor{}` or
/// `Assessor(options)` — and calls one method.

namespace rim::core {

/// How a freshly arrived node is wired into the existing topology
/// (assess_addition).
enum class AttachPolicy : std::uint8_t {
  kNearestNeighbor,  ///< symmetric edge to the nearest existing node
  kIsolated,         ///< no edge (pure disk-count bookkeeping)
};

/// The paper's second headline property (Section 1): in the receiver-centric
/// model an additional node is just one more packet source, so the
/// interference experienced by any pre-existing node grows by at most one
/// from the newcomer's own disk — plus at most one more when its attachment
/// partner enlarges its range to reach it. The sender-centric model has no
/// such bound: a single added node can force an edge whose coverage is n
/// (Figure 1). This report quantifies both effects for experiments E1/E11.
struct NodeAdditionImpact {
  /// Receiver-centric I(G') before/after the addition.
  std::uint32_t receiver_before = 0;
  std::uint32_t receiver_after = 0;
  /// Max increase of I(v) over pre-existing nodes v.
  std::uint32_t receiver_max_node_increase = 0;
  /// Interference experienced by the new node itself.
  std::uint32_t newcomer_interference = 0;
  /// Sender-centric (MobiHoc'04) max edge coverage before/after.
  std::uint32_t sender_before = 0;
  std::uint32_t sender_after = 0;
};

struct NodeRemovalImpact {
  std::uint32_t receiver_before = 0;
  std::uint32_t receiver_after = 0;
  /// Max increase of I(v) over surviving nodes (0 in the receiver model
  /// when no repair edges are added — a property the tests assert).
  std::uint32_t receiver_max_node_increase = 0;
};

class Assessor {
 public:
  /// \p options seeds the topology overloads that take none and the
  /// temporary Scenarios built by assess_addition / assess_removal.
  explicit Assessor(EvalOptions options = {}) : options_(options) {}

  // --- one-shot: summary of a topology ------------------------------------

  /// Full summary for a topology: computes radii from the topology (r_u =
  /// distance to farthest neighbor) and evaluates Definition 3.1/3.2 with
  /// interference_vector_squared — the same evaluator Scenario's full
  /// evaluations call. Hold a Scenario instead when the network evolves.
  [[nodiscard]] InterferenceSummary assess(const graph::Graph& topology,
                                           std::span<const geom::Vec2> points,
                                           const EvalOptions& options) const;
  [[nodiscard]] InterferenceSummary assess(const graph::Graph& topology,
                                           std::span<const geom::Vec2> points,
                                           Strategy strategy) const {
    EvalOptions local = options_;
    return assess(topology, points, local.with_strategy(strategy));
  }
  [[nodiscard]] InterferenceSummary assess(
      const graph::Graph& topology, std::span<const geom::Vec2> points) const {
    return assess(topology, points, options_);
  }

  // --- impact of a mutation sequence on a live scenario -------------------

  /// Measure what applying \p mutations (in order) would do to
  /// \p scenario, without applying it: the sequence runs on a probe copy
  /// and per-node deltas, affected ids, and before/after maxima are
  /// reported in the pre-mutation id space. \p scenario itself only
  /// refreshes its evaluation cache.
  [[nodiscard]] Assessment assess(Scenario& scenario,
                                  std::span<const Mutation> mutations) const;
  [[nodiscard]] Assessment assess(Scenario& scenario,
                                  const Mutation& mutation) const {
    return assess(scenario, std::span<const Mutation>(&mutation, 1));
  }

  // --- structured churn reports (experiments E1/E11) ----------------------

  /// Impact of adding a node at \p new_point to the network
  /// (\p points, \p topology) under \p policy, including the
  /// sender-centric (MobiHoc'04) before/after comparison.
  [[nodiscard]] NodeAdditionImpact assess_addition(
      std::span<const geom::Vec2> points, const graph::Graph& topology,
      geom::Vec2 new_point,
      AttachPolicy policy = AttachPolicy::kNearestNeighbor) const;

  /// Impact of removing node \p victim (and its incident edges) without
  /// repair.
  [[nodiscard]] NodeRemovalImpact assess_removal(
      std::span<const geom::Vec2> points, const graph::Graph& topology,
      NodeId victim) const;

  [[nodiscard]] const EvalOptions& options() const { return options_; }

 private:
  EvalOptions options_;
};

}  // namespace rim::core
