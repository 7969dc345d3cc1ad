#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rim/core/interference.hpp"
#include "rim/geom/vec2.hpp"

/// \file sinr.hpp
/// The physical (SINR) interference model comparator (DESIGN.md §12).
///
/// The third model beside the paper's receiver-centric count and the
/// MobiHoc'04 sender-centric edge coverage: interference at a node v is the
/// *accumulated path-loss power* of every other transmitter,
///
///   P(v) = sum_{u != v, r_u > 0} P_u / d(u, v)^alpha,
///
/// with the power rule P_u = kappa * r_u^alpha (the weakest power that
/// still closes u's longest link alone — phy::schedule_links_sinr uses the
/// same rule and gather kernel) and an even integer path-loss exponent
/// alpha = 2h, so every contribution
///
///   (kappa * r2_u^h) / d2^h
///
/// is computed from *squared* quantities with h-1 multiplies per power and
/// one divide — all per-lane IEEE-exact, which is what lets the SIMD
/// kernels (simd::sinr_gather / sinr_scatter) stay bit-identical to their
/// scalar twins. Contributions below far_field_rel * noise truncate to
/// zero (the per-transmitter cutoff disk that makes the grid path
/// near-linear); coincident nodes (d2 == 0) are excluded by convention.
///
/// Alongside the real-valued power the assessor counts each node's
/// *significant interferers* — transmitters contributing at least
/// significant_rel * noise — an integer per-node measure directly
/// comparable with the disk models' covering-disk counts, and invariant
/// across evaluation strategies. The power is bit-identical between kGrid
/// and kParallel (both sum each receiver in ascending transmitter order)
/// and agrees with the kBrute gather up to accumulation order; every
/// path's SIMD/scalar twins are bit-identical, which the checksum tests
/// pin.

namespace rim::core {

/// Result of one SINR assessment. `power` and `per_node` are indexed by
/// node id.
struct SinrSummary {
  std::vector<double> power;            ///< accumulated interference power
  std::vector<std::uint32_t> per_node;  ///< significant-interferer counts
  std::uint32_t max = 0;                ///< max significant count
  double mean = 0.0;                    ///< mean significant count
  std::uint64_t total = 0;              ///< sum of significant counts
  double max_power = 0.0;               ///< max_v P(v)
  std::uint64_t power_checksum = 0;     ///< FNV-1a over power bit patterns

  /// Aggregate the two per-node columns into a summary (the single
  /// aggregation point of every strategy and twin).
  [[nodiscard]] static SinrSummary from_columns(
      std::vector<double> power, std::vector<std::uint32_t> per_node);

  /// The integer projection: significant-interferer counts as an
  /// InterferenceSummary, the form Assessor::assess returns so the three
  /// models share one result type.
  [[nodiscard]] InterferenceSummary to_interference() const;
};

/// The SINR comparator. Stateless like interference_vector_squared, whose
/// (points, radii2, options) signature it shares: every call is a full
/// evaluation of the node state it is handed.
class SinrAssessor {
 public:
  explicit SinrAssessor(EvalOptions options = {}) : options_(options) {}

  /// Assess node v at points[v] with squared radius radii2[v] under
  /// options.sinr. Strategy resolution: kBrute gathers per receiver over
  /// x/y/r^2 columns split from the input (an O(n) copy beside the O(n^2)
  /// loop); kGrid and kParallel scatter
  /// per transmitter. The scatter cuts the receivers into x-stripes — one
  /// for kGrid, one per ThreadPool::shared() thread for kParallel — and
  /// builds one frozen geom::GridIndex per stripe (cells of half the
  /// median cutoff radius); each stripe walks every transmitter in
  /// ascending id order over its index's row spans, so every receiver
  /// sums its contributions in the same order for any stripe count and
  /// kParallel is bit-identical to kGrid. kParallel runs
  /// parallel_for on the shared pool: never call it from inside a task of
  /// that pool (DESIGN.md §8).
  [[nodiscard]] SinrSummary assess(std::span<const geom::Vec2> points,
                                   std::span<const double> radii2,
                                   const EvalOptions& options) const;
  [[nodiscard]] SinrSummary assess(std::span<const geom::Vec2> points,
                                   std::span<const double> radii2) const {
    return assess(points, radii2, options_);
  }

  /// One-shot topology form: radii derived from farthest neighbors
  /// (core/radii.hpp), then the (points, radii2) path.
  [[nodiscard]] SinrSummary assess(const graph::Graph& topology,
                                   std::span<const geom::Vec2> points,
                                   const EvalOptions& options) const;
  [[nodiscard]] SinrSummary assess(const graph::Graph& topology,
                                   std::span<const geom::Vec2> points) const {
    return assess(topology, points, options_);
  }

  /// Scalar-twin evaluation: identical strategy resolution, scalar kernels
  /// only. The bit-identity oracle for the checksum tests and the E23
  /// acceptance gate.
  [[nodiscard]] SinrSummary assess_scalar(std::span<const geom::Vec2> points,
                                          std::span<const double> radii2,
                                          const EvalOptions& options) const;
  [[nodiscard]] SinrSummary assess_scalar(
      std::span<const geom::Vec2> points,
      std::span<const double> radii2) const {
    return assess_scalar(points, radii2, options_);
  }

  [[nodiscard]] const EvalOptions& options() const { return options_; }

 private:
  EvalOptions options_;
};

namespace detail {

/// The grid scatter behind kGrid (\p stripes = 1) and kParallel (one
/// stripe per shared-pool thread), with the stripe count explicit so the
/// tests can pin bit-identity across counts the host's pool would not
/// reach. \p use_scalar selects the scalar kernel twins.
[[nodiscard]] SinrSummary scatter_striped(std::span<const geom::Vec2> points,
                                          std::span<const double> radii2,
                                          const SinrOptions& sinr,
                                          std::size_t stripes,
                                          bool use_scalar);

}  // namespace detail

}  // namespace rim::core
