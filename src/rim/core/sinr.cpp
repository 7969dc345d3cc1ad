#include "rim/core/sinr.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "rim/core/radii.hpp"
#include "rim/geom/grid_index.hpp"
#include "rim/geom/grid_kernels.hpp"
#include "rim/parallel/parallel_for.hpp"
#include "rim/simd/simd.hpp"

namespace rim::core {

namespace {

/// FNV-1a over the bit patterns of a double column, in index (= id) order —
/// the SINR analogue of fnv1a_words, byte order little-endian-of-the-bits
/// so the digest is platform-independent.
std::uint64_t fnv1a_doubles(std::span<const double> values) {
  constexpr std::uint64_t kOffset = 0xCBF29CE484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t h = kOffset;
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xFFU;
      h *= kPrime;
    }
  }
  return h;
}

/// Receivers grouped into x-stripes: stripe k owns
/// members[begin[k], begin[k + 1]), in ascending id order.
struct Stripes {
  std::vector<NodeId> members;
  std::vector<std::size_t> begin;
};

/// Cut the receivers into \p count stripes at x-quantiles. Receiver v
/// joins the stripe after the last cut point <= points[v].x, so tied x
/// values share a stripe and some stripes may stay empty (fewer receivers
/// than stripes, or every receiver on one x). One stripe is the identity.
Stripes cut_stripes(std::span<const geom::Vec2> points, std::size_t count) {
  const std::size_t n = points.size();
  Stripes s;
  s.begin.assign(count + 1, 0);
  s.members.resize(n);
  std::vector<std::size_t> stripe_of(n, 0);
  if (count > 1 && n > 0) {
    // Cut point k is the (k*n/count)-th smallest x; successive
    // nth_element calls each partition only the suffix above the last cut.
    std::vector<double> sorted(n);
    for (std::size_t v = 0; v < n; ++v) sorted[v] = points[v].x;
    std::vector<double> cuts;
    cuts.reserve(count - 1);
    auto lo = sorted.begin();
    for (std::size_t k = 1; k < count; ++k) {
      const auto nth =
          sorted.begin() + static_cast<std::ptrdiff_t>(k * n / count);
      std::nth_element(lo, nth, sorted.end());
      cuts.push_back(*nth);
      lo = nth;
    }
    for (std::size_t v = 0; v < n; ++v) {
      stripe_of[v] = static_cast<std::size_t>(
          std::upper_bound(cuts.begin(), cuts.end(), points[v].x) -
          cuts.begin());
    }
  }
  for (std::size_t v = 0; v < n; ++v) ++s.begin[stripe_of[v] + 1];
  for (std::size_t k = 0; k < count; ++k) s.begin[k + 1] += s.begin[k];
  std::vector<std::size_t> cursor(s.begin.begin(), s.begin.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    s.members[cursor[stripe_of[v]]++] = static_cast<NodeId>(v);
  }
  return s;
}

/// Gather: one vectorised pass per receiver over x/y columns split from
/// the points (O(n) beside the O(n^2) loop) and the radius column.
SinrSummary gather(std::span<const geom::Vec2> points,
                   std::span<const double> radii2, const SinrOptions& sinr,
                   bool use_scalar) {
  const std::size_t n = points.size();
  std::vector<double> x_column(n);
  std::vector<double> y_column(n);
  for (std::size_t v = 0; v < n; ++v) {
    x_column[v] = points[v].x;
    y_column[v] = points[v].y;
  }
  const double* xs = x_column.data();
  const double* ys = y_column.data();
  const double* ws = radii2.data();
  const double cf = sinr.cutoff_factor();
  const double kappa = sinr.kappa();
  const double sig = sinr.significant_threshold();
  std::vector<double> power(n, 0.0);
  std::vector<std::uint32_t> counts(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const simd::SinrAccum acc =
        use_scalar ? simd::sinr_gather_scalar(xs, ys, ws, n, xs[v], ys[v], cf,
                                              kappa, sinr.half_alpha, sig)
                   : simd::sinr_gather(xs, ys, ws, n, xs[v], ys[v], cf, kappa,
                                       sinr.half_alpha, sig);
    power[v] = acc.power;
    counts[v] = static_cast<std::uint32_t>(acc.significant);
  }
  return SinrSummary::from_columns(std::move(power), std::move(counts));
}

/// Strategy resolution shared by the SIMD and scalar twins: kBrute
/// gathers, kGrid scatters as one stripe, kParallel as one stripe per
/// shared-pool thread.
SinrSummary assess_impl(std::span<const geom::Vec2> points,
                        std::span<const double> radii2,
                        const EvalOptions& options, bool use_scalar) {
  assert(points.size() == radii2.size());
  const Strategy strategy = options.resolve(points.size());
  if (strategy == Strategy::kBrute) {
    return gather(points, radii2, options.sinr, use_scalar);
  }
  const std::size_t stripes =
      strategy == Strategy::kParallel
          ? parallel::ThreadPool::shared().thread_count()
          : 1;
  return detail::scatter_striped(points, radii2, options.sinr, stripes,
                                 use_scalar);
}

}  // namespace

namespace detail {

SinrSummary scatter_striped(std::span<const geom::Vec2> points,
                            std::span<const double> radii2,
                            const SinrOptions& sinr, std::size_t stripes,
                            bool use_scalar) {
  assert(points.size() == radii2.size());
  assert(sinr.half_alpha >= 1);
  assert(stripes >= 1);
  const std::size_t n = points.size();
  const double cf = sinr.cutoff_factor();
  const double kappa = sinr.kappa();
  const double sig = sinr.significant_threshold();
  const int h = sinr.half_alpha;
  // Cells keyed by the median cutoff radius: the scatter disks are cutoff
  // disks, not transmission disks.
  const double cell = pick_cell_size(radii2, cf) * 0.5;
  const Stripes cut = cut_stripes(points, stripes);

  std::vector<double> power(n, 0.0);
  std::vector<std::uint32_t> counts(n, 0);
  // One task per stripe. A stripe indexes only its own receivers, under
  // stripe-local ids, and walks every transmitter in ascending id order,
  // so each receiver still sums its contributions in transmitter order:
  // the power bits do not depend on the stripe count. Emitted power
  // kappa * w^h is rounded once here, exactly as the gather kernel rounds
  // kappa * ipow(w, h) before its divide, so per-pair contributions are
  // bit-identical across strategies; only the per-receiver accumulation
  // order differs from the gather.
  const auto scatter = [&](std::size_t k) {
    const std::span<const NodeId> mine(cut.members.data() + cut.begin[k],
                                       cut.begin[k + 1] - cut.begin[k]);
    if (mine.empty()) return;
    geom::PointSet mine_points(mine.size());
    double x_lo = points[mine[0]].x;
    double x_hi = x_lo;
    for (std::size_t l = 0; l < mine.size(); ++l) {
      mine_points[l] = points[mine[l]];
      x_lo = std::min(x_lo, mine_points[l].x);
      x_hi = std::max(x_hi, mine_points[l].x);
    }
    const geom::GridIndex index(mine_points, cell);
    // Indexed by the stripe index's slot; written back through its ids.
    std::vector<double> slot_power(mine.size(), 0.0);
    std::vector<std::uint32_t> slot_counts(mine.size(), 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double w = radii2[t];
      if (!(w > 0.0)) continue;
      const double cutoff2 = w * cf;
      // The index's walk radius: a receiver the kernel accepts has
      // |x - points[t].x| <= reach, so a disk missing [x_lo, x_hi] by more
      // than reach reaches no receiver of this stripe.
      const double reach = geom::walk_radius(cutoff2);
      const geom::Vec2 center = points[t];
      if (x_lo - center.x > reach || center.x - x_hi > reach) continue;
      const double p = kappa * simd::detail::ipow(w, h);
      if (use_scalar) {
        geom::accumulate_path_loss_scalar(index, center, cutoff2, p, h, sig,
                                          slot_power.data(),
                                          slot_counts.data());
      } else {
        geom::accumulate_path_loss(index, center, cutoff2, p, h, sig,
                                   slot_power.data(), slot_counts.data());
      }
    }
    const std::span<const NodeId> local = index.ids();
    for (std::size_t s = 0; s < mine.size(); ++s) {
      power[mine[local[s]]] = slot_power[s];
      counts[mine[local[s]]] = slot_counts[s];
    }
  };
  parallel::parallel_for(0, stripes, scatter, parallel::ThreadPool::shared(),
                         /*grain=*/1);
  return SinrSummary::from_columns(std::move(power), std::move(counts));
}

}  // namespace detail

double SinrOptions::cutoff_factor() const {
  // x^(1/h) with x = beta * margin / far_field_rel: repeated IEEE sqrt
  // while h stays even (correctly rounded, hence deterministic across
  // platforms); an odd residual exponent falls back to std::pow, which is
  // only as deterministic as the host libm — the default h = 2 and every
  // power-of-two h avoid it.
  double x = beta * margin / far_field_rel;
  int h = half_alpha;
  while (h > 1 && (h & 1) == 0) {
    x = std::sqrt(x);
    h >>= 1;
  }
  if (h > 1) x = std::pow(x, 1.0 / static_cast<double>(h));
  return x;
}

SinrSummary SinrSummary::from_columns(std::vector<double> power,
                                      std::vector<std::uint32_t> per_node) {
  assert(power.size() == per_node.size());
  SinrSummary s;
  s.power = std::move(power);
  s.per_node = std::move(per_node);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < s.per_node.size(); ++i) {
    s.max = std::max(s.max, s.per_node[i]);
    total += s.per_node[i];
    s.max_power = std::max(s.max_power, s.power[i]);
  }
  s.total = total;
  s.mean = s.per_node.empty() ? 0.0
                              : static_cast<double>(total) /
                                    static_cast<double>(s.per_node.size());
  s.power_checksum = fnv1a_doubles(s.power);
  return s;
}

InterferenceSummary SinrSummary::to_interference() const {
  return InterferenceSummary::from_per_node(per_node);
}

SinrSummary SinrAssessor::assess(std::span<const geom::Vec2> points,
                                 std::span<const double> radii2,
                                 const EvalOptions& options) const {
  return assess_impl(points, radii2, options, /*use_scalar=*/false);
}

SinrSummary SinrAssessor::assess_scalar(std::span<const geom::Vec2> points,
                                        std::span<const double> radii2,
                                        const EvalOptions& options) const {
  return assess_impl(points, radii2, options, /*use_scalar=*/true);
}

SinrSummary SinrAssessor::assess(const graph::Graph& topology,
                                 std::span<const geom::Vec2> points,
                                 const EvalOptions& options) const {
  assert(topology.node_count() == points.size());
  return assess(points, transmission_radii_squared(topology, points), options);
}

}  // namespace rim::core
