#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"

/// \file interference.hpp
/// The receiver-centric interference model (Definitions 3.1 and 3.2).
///
/// Given a topology G' on positioned nodes, the interference of node v is
///   I(v) = |{ u != v : v in D(u, r_u) }|,
/// i.e. the number of *other* nodes whose induced transmission disks cover
/// v — the nodes that can disturb reception at v. The interference of the
/// whole topology is I(G') = max_v I(v).
///
/// Three evaluation strategies are provided and cross-checked by tests:
///  - Brute:    O(n^2) pairwise oracle.
///  - Grid:     per-transmitter disk walks over one frozen geom::GridIndex
///              with cells of twice the median radius; expected
///              near-linear for bounded-density instances.
///  - Parallel: Grid with the transmitters cut into one run per thread of
///              the shared pool, each with its own counters.
///
/// All of them recompute from scratch. For evolving networks (churn, local
/// search, simulation ticks) prefer core::Scenario (scenario.hpp), the
/// stateful engine that maintains the interference vector under
/// add/remove/move mutations with O(affected-disk) work per event; the free
/// functions below are one-shot conveniences layered on the same kernels.

namespace rim::core {

/// Per-node and aggregate interference of a topology.
struct InterferenceSummary {
  std::vector<std::uint32_t> per_node;  ///< I(v) for every node v.
  std::uint32_t max = 0;                ///< I(G'), Definition 3.2.
  double mean = 0.0;                    ///< average node interference.
  std::uint64_t total = 0;              ///< sum of I(v); equals total coverage.

  /// Aggregate a per-node vector into a summary (max/mean/total). The single
  /// aggregation point shared by every evaluation strategy and by Scenario.
  [[nodiscard]] static InterferenceSummary from_per_node(
      std::vector<std::uint32_t> per_node);

  /// Histogram: bucket k counts nodes with I(v) == k (size max+1).
  [[nodiscard]] std::vector<std::uint32_t> histogram() const;
};

enum class Strategy : std::uint8_t {
  kBrute,     ///< O(n^2) oracle.
  kGrid,      ///< uniform-grid accelerated.
  kParallel,  ///< grid + thread pool.
  kAuto,      ///< pick by instance size.
};

/// Which interference model Assessor::assess evaluates (DESIGN.md §12).
enum class Model : std::uint8_t {
  kReceiverCentric,  ///< the paper's I(v) = covering-disk count (default)
  kSenderCentric,    ///< MobiHoc'04 per-edge disk coverage, max over edges
  kSinr,             ///< physical model: accumulated path-loss power at v
};

/// Parameters of the SINR (physical) model comparator (core/sinr.hpp).
///
/// The path-loss exponent is constrained to an even integer (alpha = 2h)
/// so a contribution P_u / d(u,v)^alpha = (kappa * r2_u^h) / d2^h is
/// computed from *squared* distances with only multiplies and one divide —
/// all per-lane IEEE-exact — which is what makes the SIMD and scalar SINR
/// kernels bit-identical (see simd::sinr_gather_scalar).
struct SinrOptions {
  int half_alpha = 2;      ///< h; path-loss exponent alpha = 2h (default 4)
  double beta = 2.0;       ///< SINR acceptance threshold
  double noise = 1e-4;     ///< ambient noise floor N
  double margin = 2.0;     ///< transmit-power headroom over beta*N

  /// Contributions below far_field_rel * noise truncate to zero; together
  /// with the power rule this induces the per-transmitter squared cutoff
  /// d2 <= r2 * cutoff_factor() outside which a disk is irrelevant.
  double far_field_rel = 1e-3;

  /// A contribution >= significant_rel * noise counts as one *significant
  /// interferer* — the integer per-node count that makes SINR results
  /// comparable with the disk models' covering-disk counts.
  double significant_rel = 1.0;

  /// Emitted power of a node with squared radius r2: P = kappa() * r2^h,
  /// the squared-radius form of P_u = beta * N * margin * r_u^alpha — the
  /// weakest power that still closes an r_u-length link alone
  /// (phy::schedule_links_sinr uses the same rule).
  [[nodiscard]] double kappa() const { return beta * noise * margin; }

  /// Far-field truncation factor: contribution < far_field_rel * N exactly
  /// when d2 > r2 * (beta * margin / far_field_rel)^(1/h). Evaluated once
  /// per assessment, outside the kernels.
  [[nodiscard]] double cutoff_factor() const;

  /// Absolute significant-interferer threshold passed to the kernels.
  [[nodiscard]] double significant_threshold() const {
    return significant_rel * noise;
  }

  // --- builder-style setters (match EvalOptions) ---------------------------
  SinrOptions& with_half_alpha(int h) {
    half_alpha = h;
    return *this;
  }
  SinrOptions& with_beta(double b) {
    beta = b;
    return *this;
  }
  SinrOptions& with_noise(double n) {
    noise = n;
    return *this;
  }
  SinrOptions& with_margin(double m) {
    margin = m;
    return *this;
  }
  SinrOptions& with_far_field_rel(double rel) {
    far_field_rel = rel;
    return *this;
  }
  SinrOptions& with_significant_rel(double rel) {
    significant_rel = rel;
    return *this;
  }
};

/// The one evaluation-configuration surface shared by the free evaluators,
/// core::Scenario, highway::local_search, and ext2d — every threshold that
/// used to be a scattered constant lives here, overridable per call site.
struct EvalOptions {
  Strategy strategy = Strategy::kAuto;

  /// Which interference model Assessor::assess runs (default: the paper's
  /// receiver-centric count). Scenario and the free evaluators are
  /// receiver-centric only; they ignore this field.
  Model model = Model::kReceiverCentric;

  /// SINR-model parameters, consulted only when model == Model::kSinr.
  SinrOptions sinr;

  /// Strategy::kAuto resolution (see resolve()): instances up to
  /// auto_brute_max_nodes use the O(n^2) oracle (cheaper than building a
  /// grid), up to auto_grid_max_nodes the serial grid, and anything larger
  /// the parallel grid.
  std::size_t auto_brute_max_nodes = 64;
  std::size_t auto_grid_max_nodes = 4096;

  /// Scenario's incremental-vs-full fallback: a single delta estimated to
  /// touch more than max(touched_floor, max_touched_fraction * n) nodes
  /// invalidates the cache instead of patching it.
  double max_touched_fraction = 0.25;
  std::size_t touched_floor = 64;

  // --- builder-style setters -----------------------------------------------
  // Chainable named setters so call sites read as intent instead of
  // designated-initializer field soup:
  //
  //   EvalOptions{}.with_strategy(Strategy::kGrid).with_touched_floor(128)
  //
  // Each returns *this by reference; the defaults above apply to anything
  // left unset.

  EvalOptions& with_strategy(Strategy s) {
    strategy = s;
    return *this;
  }
  /// Interference model for Assessor::assess (default kReceiverCentric).
  EvalOptions& with_model(Model m) {
    model = m;
    return *this;
  }
  /// SINR-model parameters (only consulted under Model::kSinr).
  EvalOptions& with_sinr(const SinrOptions& s) {
    sinr = s;
    return *this;
  }
  /// kAuto cutover to the O(n^2) oracle (default 64 nodes).
  EvalOptions& with_auto_brute_max_nodes(std::size_t n) {
    auto_brute_max_nodes = n;
    return *this;
  }
  /// kAuto cutover to the serial grid (default 4096 nodes).
  EvalOptions& with_auto_grid_max_nodes(std::size_t n) {
    auto_grid_max_nodes = n;
    return *this;
  }
  /// Incremental fallback fraction (default 0.25 of the node count).
  EvalOptions& with_max_touched_fraction(double fraction) {
    max_touched_fraction = fraction;
    return *this;
  }
  /// Incremental fallback floor (default 64 touched nodes).
  EvalOptions& with_touched_floor(std::size_t floor) {
    touched_floor = floor;
    return *this;
  }

  /// The concrete strategy `strategy` resolves to for an instance of
  /// \p node_count nodes; non-kAuto strategies pass through unchanged.
  [[nodiscard]] Strategy resolve(std::size_t node_count) const {
    if (strategy != Strategy::kAuto) return strategy;
    if (node_count <= auto_brute_max_nodes) return Strategy::kBrute;
    if (node_count <= auto_grid_max_nodes) return Strategy::kGrid;
    return Strategy::kParallel;
  }

  /// The incremental fallback threshold for an instance of \p node_count
  /// nodes (see max_touched_fraction).
  [[nodiscard]] std::size_t touched_threshold(std::size_t node_count) const {
    const auto scaled = static_cast<std::size_t>(
        max_touched_fraction * static_cast<double>(node_count));
    return touched_floor > scaled ? touched_floor : scaled;
  }
};

/// Per-node interference I(v) for all nodes under the given *squared*
/// radii — the exact form every evaluator uses (containment is
/// dist2 <= radii2[u], no sqrt/square roundtrip; a node exactly on a disk
/// boundary counts as covered, self-interference is excluded). This is the
/// one full evaluator: Assessor's topology overloads, graph_interference,
/// and Scenario's full evaluations (construction, and the fallback when a
/// delta touches too much of the instance) all call it. For repeated
/// evaluation of an evolving network hold a core::Scenario instead, which
/// keeps the vector current at O(affected-disk) cost per mutation.
[[nodiscard]] std::vector<std::uint32_t> interference_vector_squared(
    std::span<const geom::Vec2> points, std::span<const double> radii2,
    Strategy strategy = Strategy::kAuto);
[[nodiscard]] std::vector<std::uint32_t> interference_vector_squared(
    std::span<const geom::Vec2> points, std::span<const double> radii2,
    const EvalOptions& options);

/// Convenience: I(G') only. For the full InterferenceSummary of a topology
/// use core::Assessor::assess(topology, points); hold a Scenario instead
/// when the network evolves.
[[nodiscard]] std::uint32_t graph_interference(
    const graph::Graph& topology, std::span<const geom::Vec2> points,
    Strategy strategy = Strategy::kAuto);
[[nodiscard]] std::uint32_t graph_interference(
    const graph::Graph& topology, std::span<const geom::Vec2> points,
    const EvalOptions& options);

/// The witnesses behind Definition 3.1: for every node v, the ascending
/// list of nodes u whose disks D(u, r_u) cover v. Row sizes equal the
/// per-node interference; useful for diagnostics and visualisation.
[[nodiscard]] std::vector<std::vector<NodeId>> covering_sets(
    const graph::Graph& topology, std::span<const geom::Vec2> points);

}  // namespace rim::core
