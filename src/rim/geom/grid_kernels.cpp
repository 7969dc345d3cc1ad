#include "rim/geom/grid_kernels.hpp"

#include <algorithm>

#include "rim/geom/dynamic_grid.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/simd/simd.hpp"

namespace rim::geom {

namespace {

/// Chunk length for the d2 staging buffer of the scatter kernels — small
/// enough to stay in L1, large enough to amortise the loop overhead.
constexpr std::size_t kChunk = 128;

/// Remove the excluded node's own lane contribution from a coverage count.
/// The SIMD pass counts every lane; the excluded node (when present and
/// inside the scanned disk) was certainly among them, because the walk
/// rectangle covers the whole query disk.
void subtract_exclude(const DynamicGrid& grid, Vec2 receiver, double query_r2,
                      NodeId exclude, CoverageResult& out) {
  if (exclude == kInvalidNode || !grid.contains(exclude)) return;
  const double d2 = dist2(grid.position(exclude), receiver);
  if (d2 > query_r2) return;
  --out.visited;
  const double w = grid.weight(exclude);
  if (w > 0.0 && d2 <= w) --out.covered;
}

template <typename CellKernel>
CoverageResult count_covering_impl(const DynamicGrid& grid, Vec2 receiver,
                                   double query_r2, NodeId exclude,
                                   CellKernel&& kernel) {
  CoverageResult out;
  out.cells = grid.for_each_cell_in_disk(
      receiver, query_r2, [&](const DynamicGrid::CellView& cell) {
        const simd::CoverageCounts counts =
            kernel(cell.xs, cell.ys, cell.ws, cell.count, receiver.x,
                   receiver.y, query_r2);
        out.visited += counts.visited;
        out.covered += static_cast<std::uint32_t>(counts.covered);
      });
  subtract_exclude(grid, receiver, query_r2, exclude, out);
  return out;
}

template <typename DistanceKernel>
DeltaResult apply_disk_delta_impl(const DynamicGrid& grid, Vec2 center,
                                  double old_r2, double new_r2,
                                  NodeId exclude, std::uint32_t* interference,
                                  DistanceKernel&& distances) {
  DeltaResult out;
  const double query_r2 = std::max(old_r2, new_r2);
  double d2[kChunk];
  out.cells = grid.for_each_cell_in_disk(
      center, query_r2, [&](const DynamicGrid::CellView& cell) {
        for (std::size_t base = 0; base < cell.count; base += kChunk) {
          const std::size_t m = std::min(kChunk, cell.count - base);
          distances(cell.xs + base, cell.ys + base, m, center.x, center.y,
                    d2);
          for (std::size_t k = 0; k < m; ++k) {
            if (d2[k] > query_r2) continue;
            const NodeId v = cell.ids[base + k];
            if (v == exclude) continue;
            ++out.visited;
            const bool in_old = old_r2 > 0.0 && d2[k] <= old_r2;
            const bool in_new = new_r2 > 0.0 && d2[k] <= new_r2;
            if (in_new && !in_old) {
              ++interference[v];
            } else if (in_old && !in_new) {
              --interference[v];
            }
          }
        }
      });
  return out;
}

}  // namespace

CoverageResult count_covering(const DynamicGrid& grid, Vec2 receiver,
                              double query_r2, NodeId exclude) {
  return count_covering_impl(
      grid, receiver, query_r2, exclude,
      [](const double* xs, const double* ys, const double* ws, std::size_t n,
         double cx, double cy, double q) {
        return simd::count_coverage(xs, ys, ws, n, cx, cy, q);
      });
}

CoverageResult count_covering_scalar(const DynamicGrid& grid, Vec2 receiver,
                                     double query_r2, NodeId exclude) {
  return count_covering_impl(
      grid, receiver, query_r2, exclude,
      [](const double* xs, const double* ys, const double* ws, std::size_t n,
         double cx, double cy, double q) {
        return simd::count_coverage_scalar(xs, ys, ws, n, cx, cy, q);
      });
}

DeltaResult apply_disk_delta(const DynamicGrid& grid, Vec2 center,
                             double old_r2, double new_r2, NodeId exclude,
                             std::uint32_t* interference) {
  return apply_disk_delta_impl(
      grid, center, old_r2, new_r2, exclude, interference,
      [](const double* xs, const double* ys, std::size_t n, double cx,
         double cy, double* out) {
        simd::squared_distances(xs, ys, n, cx, cy, out);
      });
}

DeltaResult apply_disk_delta_scalar(const DynamicGrid& grid, Vec2 center,
                                    double old_r2, double new_r2,
                                    NodeId exclude,
                                    std::uint32_t* interference) {
  return apply_disk_delta_impl(
      grid, center, old_r2, new_r2, exclude, interference,
      [](const double* xs, const double* ys, std::size_t n, double cx,
         double cy, double* out) {
        simd::squared_distances_scalar(xs, ys, n, cx, cy, out);
      });
}

namespace {

template <typename ScatterKernel, typename FoldKernel>
void accumulate_path_loss_impl(const GridIndex& index, Vec2 center,
                               double cutoff2, double power, int half_alpha,
                               double sig, double* power_out,
                               std::uint32_t* significant,
                               ScatterKernel&& scatter, FoldKernel&& fold) {
  if (cutoff2 <= 0.0 || power <= 0.0) return;
  const double* xs = index.xs().data();
  const double* ys = index.ys().data();
  double contrib[kChunk];
  index.for_each_row_span(center, cutoff2, [&](std::size_t begin,
                                               std::size_t end) {
    for (std::size_t base = begin; base < end; base += kChunk) {
      const std::size_t m = std::min(kChunk, end - base);
      scatter(xs + base, ys + base, m, center.x, center.y, cutoff2, power,
              half_alpha, contrib);
      fold(contrib, m, sig, power_out + base, significant + base);
    }
  });
}

}  // namespace

void accumulate_path_loss(const GridIndex& index, Vec2 center, double cutoff2,
                          double power, int half_alpha, double sig,
                          double* power_out, std::uint32_t* significant) {
  accumulate_path_loss_impl(
      index, center, cutoff2, power, half_alpha, sig, power_out, significant,
      [](const double* xs, const double* ys, std::size_t n, double cx,
         double cy, double c2, double p, int h, double* out) {
        simd::sinr_scatter(xs, ys, n, cx, cy, c2, p, h, out);
      },
      [](const double* contrib, std::size_t n, double s, double* pw,
         std::uint32_t* sig_out) {
        simd::sinr_fold(contrib, n, s, pw, sig_out);
      });
}

void accumulate_path_loss_scalar(const GridIndex& index, Vec2 center,
                                 double cutoff2, double power, int half_alpha,
                                 double sig, double* power_out,
                                 std::uint32_t* significant) {
  accumulate_path_loss_impl(
      index, center, cutoff2, power, half_alpha, sig, power_out, significant,
      [](const double* xs, const double* ys, std::size_t n, double cx,
         double cy, double c2, double p, int h, double* out) {
        simd::sinr_scatter_scalar(xs, ys, n, cx, cy, c2, p, h, out);
      },
      [](const double* contrib, std::size_t n, double s, double* pw,
         std::uint32_t* sig_out) {
        simd::sinr_fold_scalar(contrib, n, s, pw, sig_out);
      });
}

}  // namespace rim::geom
