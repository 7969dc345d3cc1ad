#pragma once

#include <cstdint>

#include "rim/common/types.hpp"
#include "rim/geom/vec2.hpp"

/// \file grid_kernels.hpp
/// The vectorised disk kernels over the two grids' SoA columns.
///
/// core::Scenario's incremental hot loops are two shapes of the same exact
/// containment test over DynamicGrid cells:
///
///  - count_covering: receiver-centric recount — how many registered disks
///    cover one point (Definition 3.1 for a single v);
///  - apply_disk_delta: the ±1 symmetric-difference update when one
///    transmitter's disk changes (the paper's robustness property).
///
/// accumulate_path_loss is the SINR model's transmitter-centric scatter,
/// run over the row spans of a frozen GridIndex. Full receiver-centric
/// evaluations do not use these kernels; they go through
/// core::interference_vector_squared.
///
/// Each runs the simd.hpp kernels over SoA columns and has a `_scalar`
/// twin built from the scalar reference kernels; the twins are
/// bit-identical (integer counts of exact predicates, and per-lane
/// IEEE-exact path-loss terms — see tests/simd_test.cpp) and the scalar
/// forms double as documentation of the semantics.

namespace rim::geom {

class DynamicGrid;
class GridIndex;

/// Result of one receiver-centric coverage count.
struct CoverageResult {
  std::uint32_t covered = 0;  ///< points whose registered disk covers the
                              ///< receiver (weight > 0 && d2 <= weight)
  std::uint64_t visited = 0;  ///< candidate points with d2 <= query_r2
  std::size_t cells = 0;      ///< grid cells visited
};

/// Count the points (other than \p exclude) whose registered weight (their
/// squared radius) covers \p receiver, scanning the disk of \p query_r2
/// around it. \p query_r2 must be >= every registered weight (the engine
/// passes its tracked max) so no coverer lies outside the scan.
[[nodiscard]] CoverageResult count_covering(const DynamicGrid& grid,
                                            Vec2 receiver, double query_r2,
                                            NodeId exclude);
/// Scalar reference twin of count_covering (bit-identical).
[[nodiscard]] CoverageResult count_covering_scalar(const DynamicGrid& grid,
                                                   Vec2 receiver,
                                                   double query_r2,
                                                   NodeId exclude);

/// Result of one disk-delta application.
struct DeltaResult {
  std::uint64_t visited = 0;  ///< candidate points with d2 <= query disk
  std::size_t cells = 0;      ///< grid cells visited
};

/// Apply the symmetric-difference delta of a transmitter's disk changing
/// from (center, old_r2) to (center, new_r2): every point v != exclude
/// gains 1 in interference[v] when it entered the disk and loses 1 when it
/// left. Containment requires a positive radius (a radius-0 node does not
/// transmit). interference is indexed by node id.
DeltaResult apply_disk_delta(const DynamicGrid& grid, Vec2 center,
                             double old_r2, double new_r2, NodeId exclude,
                             std::uint32_t* interference);
/// Scalar reference twin of apply_disk_delta (bit-identical).
DeltaResult apply_disk_delta_scalar(const DynamicGrid& grid, Vec2 center,
                                    double old_r2, double new_r2,
                                    NodeId exclude,
                                    std::uint32_t* interference);

/// Transmitter-centric SINR scatter (DESIGN.md §12): one transmitter at
/// \p center with precomputed emitted power \p power (= kappa * r2^h) and
/// far-field cutoff \p cutoff2 (= r2 * cutoff_factor) adds, for every
/// indexed point in slot s with 0 < d2 <= cutoff2,
///
///   power_out[s] += power / d2^half_alpha
///
/// and increments significant[s] when that contribution is >= \p sig.
/// Both outputs are indexed by the index's slot (GridIndex::ids() maps a
/// slot to its point id), so each row span writes a contiguous run. The
/// d2 > 0 test excludes the transmitter's own lane (and coincident nodes,
/// the kernel-layer convention of simd::sinr_scatter_scalar), so no
/// exclude id is needed. Each point occupies exactly one slot, so one call
/// touches each receiver at most once and the caller fixes the add order
/// into every power_out[s] by the order of its calls. The SINR assessor
/// calls it in ascending transmitter id over one index per receiver
/// stripe, with stripes on different threads writing disjoint columns —
/// the same per-receiver order for any stripe count.
void accumulate_path_loss(const GridIndex& index, Vec2 center, double cutoff2,
                          double power, int half_alpha, double sig,
                          double* power_out, std::uint32_t* significant);
/// Scalar reference twin of accumulate_path_loss (bit-identical).
void accumulate_path_loss_scalar(const GridIndex& index, Vec2 center,
                                 double cutoff2, double power, int half_alpha,
                                 double sig, double* power_out,
                                 std::uint32_t* significant);

}  // namespace rim::geom
