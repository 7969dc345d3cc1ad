#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#define RIM_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define RIM_SIMD_NEON 1
#endif

/// \file simd.hpp
/// Portable explicit-SIMD kernels for the disk-coverage hot loops.
///
/// The receiver-centric model is built entirely from one predicate — the
/// exact closed-disk containment test `d2 <= r2` with
/// `d2 = dx*dx + dy*dy` evaluated in double precision — over
/// structure-of-arrays columns (geom::DynamicGrid cells, the row spans
/// of a frozen geom::GridIndex, the SINR gather's x/y/r^2 columns).
/// That predicate vectorises losslessly: each lane computes the identical
/// two multiplies and one add in round-to-nearest double, the comparison
/// is exact, and the counts are integers, so the SIMD kernels are
/// bit-identical to the scalar loops (tests/simd_test.cpp pins this on
/// denormals and exact-boundary radii; the E18/E21 benches pin it on
/// 100k-node instances).
///
/// Fused multiply-add is the one instruction that could break identity
/// (one rounding instead of two), so the kernels only ever use explicit
/// non-fused multiply and add intrinsics, and the scalar fallbacks disable
/// floating-point contraction. x86-64's SSE2 baseline has no FMA at all;
/// on AArch64 the explicit vmulq/vaddq intrinsics are never contracted.
///
/// Two width-2 backends (SSE2 __m128d, NEON float64x2) plus an
/// auto-vectorisation-friendly scalar fallback. Every kernel has a
/// `_scalar` twin compiled unconditionally — the identity tests compare
/// the active backend against it directly.

namespace rim::simd {

#if defined(RIM_SIMD_SSE2)
inline constexpr bool kHaveSimd = true;
inline constexpr std::string_view kBackend = "sse2";
#elif defined(RIM_SIMD_NEON)
inline constexpr bool kHaveSimd = true;
inline constexpr std::string_view kBackend = "neon";
#else
inline constexpr bool kHaveSimd = false;
inline constexpr std::string_view kBackend = "scalar";
#endif

/// Counts from one coverage pass over a SoA column block (see
/// count_coverage).
struct CoverageCounts {
  std::uint64_t visited = 0;  ///< lanes with d2 <= query_r2
  std::uint64_t covered = 0;  ///< lanes with d2 <= query_r2, w > 0, d2 <= w
};

/// One receiver's accumulated SINR interference terms (see sinr_gather).
struct SinrAccum {
  double power = 0.0;             ///< sum of eligible path-loss contributions
  std::uint64_t significant = 0;  ///< eligible lanes with contribution >= sig
};

namespace detail {

#if defined(__clang__)
#define RIM_SIMD_NO_CONTRACT _Pragma("clang fp contract(off)")
#else
#define RIM_SIMD_NO_CONTRACT
#endif

/// d2 = dx*dx + dy*dy with two roundings — the exact arithmetic shape of
/// geom::dist2 and of both vector backends (never fused).
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
inline double
squared_distance(double x, double y, double cx, double cy) {
  RIM_SIMD_NO_CONTRACT
  const double dx = x - cx;
  const double dy = y - cy;
  return dx * dx + dy * dy;
}

/// x^h for small integer h >= 1 by left-associated repeated multiplication
/// (x, x*x, (x*x)*x, ...). The fixed association order is part of the SINR
/// kernel contract: every backend — vector or scalar — performs the same
/// h-1 roundings in the same order, so results are bit-identical.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
inline double
ipow(double x, int h) {
  RIM_SIMD_NO_CONTRACT
  double r = x;
  for (int k = 1; k < h; ++k) r *= x;
  return r;
}

/// num / den where den == 0.0 is reachable BY DESIGN: ipow underflows a
/// denormal d2^h to 0.0 and the kernels pin the resulting IEEE-754 inf
/// (the vector backends divide the same operands and produce the same
/// bits — tests/simd_test.cpp's denormal cases assert it). Kept out of
/// float-divide-by-zero sanitization so the UBSan CI leg can enforce that
/// check strictly everywhere else.
#if defined(__clang__) || defined(__GNUC__)
__attribute__((no_sanitize("float-divide-by-zero")))
#endif
inline double
div_allow_zero(double num, double den) { return num / den; }

}  // namespace detail

/// Scalar reference: for each i in [0, n), with d2 computed as above,
/// visited counts d2 <= query_r2 and covered counts
/// d2 <= query_r2 && ws[i] > 0 && d2 <= ws[i]. All comparisons exact;
/// NaN coordinates compare false everywhere, matching the `<=` loops.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
inline CoverageCounts
count_coverage_scalar(const double* xs, const double* ys, const double* ws,
                      std::size_t n, double cx, double cy, double query_r2) {
  RIM_SIMD_NO_CONTRACT
  CoverageCounts out;
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = detail::squared_distance(xs[i], ys[i], cx, cy);
    if (d2 <= query_r2) {
      ++out.visited;
      if (ws[i] > 0.0 && d2 <= ws[i]) ++out.covered;
    }
  }
  return out;
}

/// Scalar reference for squared_distances: out[i] = d2(i).
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
inline void
squared_distances_scalar(const double* xs, const double* ys, std::size_t n,
                         double cx, double cy, double* out) {
  RIM_SIMD_NO_CONTRACT
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = detail::squared_distance(xs[i], ys[i], cx, cy);
  }
}

/// Scalar reference for increment_within: counts[i] += (d2(i) <= r2) — the
/// receiver-centric containment test of one transmitter's disk, marked per
/// lane (the scatter form of count_coverage).
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
inline void
increment_within_scalar(const double* xs, const double* ys, std::size_t n,
                        double cx, double cy, double r2,
                        std::uint32_t* counts) {
  RIM_SIMD_NO_CONTRACT
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] += static_cast<std::uint32_t>(
        detail::squared_distance(xs[i], ys[i], cx, cy) <= r2);
  }
}

/// Scalar reference for the SINR *gather* kernel: accumulate, at receiver
/// (cx, cy), the path-loss contributions of the transmitters in the SoA
/// columns. Lane i (position xs[i], ys[i], squared radius ws[i]) is
/// *eligible* iff
///
///   ws[i] > 0  &&  d2 > 0  &&  d2 <= ws[i] * cutoff_factor
///
/// (a radius-0 node does not transmit; coincident nodes — d2 == 0, which
/// includes the receiver's own lane — are excluded, so no id bookkeeping is
/// needed; beyond the far-field cutoff the contribution truncates to 0).
/// An eligible lane contributes
///
///   (kappa * ws[i]^h) / d2^h        (h = half_alpha = alpha / 2)
///
/// with both powers evaluated by detail::ipow's left-associated product and
/// d2 by the two-rounding squared_distance — the exact arithmetic shape of
/// the vector backends, never fused. `significant` counts eligible lanes
/// whose contribution is >= sig (sig must be > 0).
///
/// Accumulation order is part of the contract (floating-point addition does
/// not commute): the even prefix m = n & ~1 accumulates into two lane
/// accumulators (acc0 for even i, acc1 for odd i), power starts as
/// acc0 + acc1, and the odd tail element (if any) is added last — exactly
/// the order of the width-2 vector backends.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
inline SinrAccum
sinr_gather_scalar(const double* xs, const double* ys, const double* ws,
                   std::size_t n, double cx, double cy, double cutoff_factor,
                   double kappa, int half_alpha, double sig) {
  RIM_SIMD_NO_CONTRACT
  SinrAccum out;
  double acc0 = 0.0;
  double acc1 = 0.0;
  const std::size_t m = n & ~std::size_t{1};
  const auto contribution = [&](std::size_t i) -> double {
    const double d2 = detail::squared_distance(xs[i], ys[i], cx, cy);
    if (!(ws[i] > 0.0) || !(d2 > 0.0) || !(d2 <= ws[i] * cutoff_factor)) {
      return 0.0;
    }
    const double c = detail::div_allow_zero(
        kappa * detail::ipow(ws[i], half_alpha), detail::ipow(d2, half_alpha));
    if (c >= sig) ++out.significant;
    return c;
  };
  for (std::size_t i = 0; i < m; i += 2) {
    acc0 += contribution(i);
    acc1 += contribution(i + 1);
  }
  out.power = acc0 + acc1;
  for (std::size_t i = m; i < n; ++i) out.power += contribution(i);
  return out;
}

/// Scalar reference for the SINR *scatter* kernel: per-lane contributions
/// of ONE transmitter at (cx, cy) with precomputed emitted power
/// `power` (= kappa * w^h) and far-field cutoff `cutoff2`
/// (= w * cutoff_factor), written to out[i]:
///
///   out[i] = (0 < d2 && d2 <= cutoff2) ? power / d2^h : 0.0
///
/// Purely lane-wise (no cross-lane accumulation), so the caller owns the
/// deterministic add-order when folding lanes into per-receiver totals.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
inline void
sinr_scatter_scalar(const double* xs, const double* ys, std::size_t n,
                    double cx, double cy, double cutoff2, double power,
                    int half_alpha, double* out) {
  RIM_SIMD_NO_CONTRACT
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = detail::squared_distance(xs[i], ys[i], cx, cy);
    out[i] = (d2 > 0.0 && d2 <= cutoff2)
                 ? detail::div_allow_zero(power, detail::ipow(d2, half_alpha))
                 : 0.0;
  }
}

/// Scalar reference for the SINR scatter *fold*: add one transmitter's
/// per-lane contributions (sinr_scatter's out column) into per-receiver
/// running sums,
///
///   power[i] += contrib[i];
///   significant[i] += (contrib[i] != 0 && contrib[i] >= sig);
///
/// An ineligible lane holds +0.0; adding it leaves a running sum that
/// started at +0.0 bit-identical, so folding every lane equals folding the
/// eligible ones. Each lane is one IEEE add, so every backend is
/// bit-identical to this loop.
inline void sinr_fold_scalar(const double* contrib, std::size_t n, double sig,
                             double* power, std::uint32_t* significant) {
  for (std::size_t i = 0; i < n; ++i) {
    power[i] += contrib[i];
    // RIM_LINT_ALLOW(float-equality): +0.0 is the exact value the scatter
    // kernels store for an ineligible lane.
    significant[i] += static_cast<std::uint32_t>(contrib[i] != 0.0) &
                      static_cast<std::uint32_t>(contrib[i] >= sig);
  }
}

#if defined(RIM_SIMD_SSE2)

inline CoverageCounts count_coverage(const double* xs, const double* ys,
                                     const double* ws, std::size_t n,
                                     double cx, double cy, double query_r2) {
  const __m128d vcx = _mm_set1_pd(cx);
  const __m128d vcy = _mm_set1_pd(cy);
  const __m128d vq = _mm_set1_pd(query_r2);
  const __m128d vzero = _mm_setzero_pd();
  std::uint64_t visited = 0;
  std::uint64_t covered = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), vcx);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), vcy);
    const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    const __m128d w = _mm_loadu_pd(ws + i);
    const __m128d in_q = _mm_cmple_pd(d2, vq);
    const __m128d cov = _mm_and_pd(
        in_q, _mm_and_pd(_mm_cmpgt_pd(w, vzero), _mm_cmple_pd(d2, w)));
    visited += static_cast<unsigned>(
        __builtin_popcount(static_cast<unsigned>(_mm_movemask_pd(in_q))));
    covered += static_cast<unsigned>(
        __builtin_popcount(static_cast<unsigned>(_mm_movemask_pd(cov))));
  }
  const CoverageCounts tail =
      count_coverage_scalar(xs + i, ys + i, ws + i, n - i, cx, cy, query_r2);
  return {visited + tail.visited, covered + tail.covered};
}

inline void squared_distances(const double* xs, const double* ys,
                              std::size_t n, double cx, double cy,
                              double* out) {
  const __m128d vcx = _mm_set1_pd(cx);
  const __m128d vcy = _mm_set1_pd(cy);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), vcx);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), vcy);
    _mm_storeu_pd(out + i,
                  _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)));
  }
  squared_distances_scalar(xs + i, ys + i, n - i, cx, cy, out + i);
}

inline void increment_within(const double* xs, const double* ys,
                             std::size_t n, double cx, double cy, double r2,
                             std::uint32_t* counts) {
  const __m128d vcx = _mm_set1_pd(cx);
  const __m128d vcy = _mm_set1_pd(cy);
  const __m128d vr2 = _mm_set1_pd(r2);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), vcx);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), vcy);
    const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    const auto mask =
        static_cast<unsigned>(_mm_movemask_pd(_mm_cmple_pd(d2, vr2)));
    counts[i] += mask & 1U;
    counts[i + 1] += mask >> 1;
  }
  increment_within_scalar(xs + i, ys + i, n - i, cx, cy, r2, counts + i);
}

namespace detail {

/// Vector twin of detail::ipow — same h-1 multiplies, same association.
inline __m128d ipow(__m128d x, int h) {
  __m128d r = x;
  for (int k = 1; k < h; ++k) r = _mm_mul_pd(r, x);
  return r;
}

}  // namespace detail

inline SinrAccum sinr_gather(const double* xs, const double* ys,
                             const double* ws, std::size_t n, double cx,
                             double cy, double cutoff_factor, double kappa,
                             int half_alpha, double sig) {
  const __m128d vcx = _mm_set1_pd(cx);
  const __m128d vcy = _mm_set1_pd(cy);
  const __m128d vcf = _mm_set1_pd(cutoff_factor);
  const __m128d vkappa = _mm_set1_pd(kappa);
  const __m128d vsig = _mm_set1_pd(sig);
  const __m128d vzero = _mm_setzero_pd();
  // Lane 0 of vacc is the scalar reference's acc0, lane 1 its acc1.
  __m128d vacc = _mm_setzero_pd();
  std::uint64_t significant = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), vcx);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), vcy);
    const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    const __m128d w = _mm_loadu_pd(ws + i);
    const __m128d elig = _mm_and_pd(
        _mm_and_pd(_mm_cmpgt_pd(w, vzero), _mm_cmpgt_pd(d2, vzero)),
        _mm_cmple_pd(d2, _mm_mul_pd(w, vcf)));
    // Divide first, mask after: an ineligible lane may produce inf/NaN
    // (d2 == 0), but and-with-mask zeroes its bits, and adding the
    // resulting +0.0 matches the scalar reference's `acc += 0.0` exactly.
    const __m128d c = _mm_and_pd(
        elig, _mm_div_pd(_mm_mul_pd(vkappa, detail::ipow(w, half_alpha)),
                         detail::ipow(d2, half_alpha)));
    vacc = _mm_add_pd(vacc, c);
    // Significance is a property of *eligible* lanes only: intersect with
    // elig so a masked-out lane's +0.0 cannot count when sig <= 0 (the
    // scalar reference never reaches its comparison for those lanes).
    significant += static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(
        _mm_movemask_pd(_mm_and_pd(elig, _mm_cmpge_pd(c, vsig))))));
  }
  SinrAccum out;
  double lanes[2];
  _mm_storeu_pd(lanes, vacc);
  out.power = lanes[0] + lanes[1];
  out.significant = significant;
  const SinrAccum tail =
      sinr_gather_scalar(xs + i, ys + i, ws + i, n - i, cx, cy, cutoff_factor,
                         kappa, half_alpha, sig);
  out.power += tail.power;
  out.significant += tail.significant;
  return out;
}

inline void sinr_scatter(const double* xs, const double* ys, std::size_t n,
                         double cx, double cy, double cutoff2, double power,
                         int half_alpha, double* out) {
  const __m128d vcx = _mm_set1_pd(cx);
  const __m128d vcy = _mm_set1_pd(cy);
  const __m128d vc2 = _mm_set1_pd(cutoff2);
  const __m128d vp = _mm_set1_pd(power);
  const __m128d vzero = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), vcx);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), vcy);
    const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    const __m128d elig =
        _mm_and_pd(_mm_cmpgt_pd(d2, vzero), _mm_cmple_pd(d2, vc2));
    _mm_storeu_pd(out + i,
                  _mm_and_pd(elig, _mm_div_pd(
                                       vp, detail::ipow(d2, half_alpha))));
  }
  sinr_scatter_scalar(xs + i, ys + i, n - i, cx, cy, cutoff2, power,
                      half_alpha, out + i);
}

inline void sinr_fold(const double* contrib, std::size_t n, double sig,
                      double* power, std::uint32_t* significant) {
  const __m128d vsig = _mm_set1_pd(sig);
  const __m128d vzero = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d c = _mm_loadu_pd(contrib + i);
    _mm_storeu_pd(power + i, _mm_add_pd(_mm_loadu_pd(power + i), c));
    const auto mask = static_cast<unsigned>(_mm_movemask_pd(
        _mm_and_pd(_mm_cmpneq_pd(c, vzero), _mm_cmpge_pd(c, vsig))));
    significant[i] += mask & 1U;
    significant[i + 1] += mask >> 1;
  }
  sinr_fold_scalar(contrib + i, n - i, sig, power + i, significant + i);
}

#elif defined(RIM_SIMD_NEON)

inline CoverageCounts count_coverage(const double* xs, const double* ys,
                                     const double* ws, std::size_t n,
                                     double cx, double cy, double query_r2) {
  const float64x2_t vcx = vdupq_n_f64(cx);
  const float64x2_t vcy = vdupq_n_f64(cy);
  const float64x2_t vq = vdupq_n_f64(query_r2);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  std::uint64_t visited = 0;
  std::uint64_t covered = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t dx = vsubq_f64(vld1q_f64(xs + i), vcx);
    const float64x2_t dy = vsubq_f64(vld1q_f64(ys + i), vcy);
    // vmulq + vaddq, never vfmaq: fusing would change the rounding and
    // break bit-identity with the scalar kernels.
    const float64x2_t d2 =
        vaddq_f64(vmulq_f64(dx, dx), vmulq_f64(dy, dy));
    const float64x2_t w = vld1q_f64(ws + i);
    const uint64x2_t in_q = vcleq_f64(d2, vq);
    const uint64x2_t cov = vandq_u64(
        in_q, vandq_u64(vcgtq_f64(w, vzero), vcleq_f64(d2, w)));
    visited += (vgetq_lane_u64(in_q, 0) & 1) + (vgetq_lane_u64(in_q, 1) & 1);
    covered += (vgetq_lane_u64(cov, 0) & 1) + (vgetq_lane_u64(cov, 1) & 1);
  }
  const CoverageCounts tail =
      count_coverage_scalar(xs + i, ys + i, ws + i, n - i, cx, cy, query_r2);
  return {visited + tail.visited, covered + tail.covered};
}

inline void squared_distances(const double* xs, const double* ys,
                              std::size_t n, double cx, double cy,
                              double* out) {
  const float64x2_t vcx = vdupq_n_f64(cx);
  const float64x2_t vcy = vdupq_n_f64(cy);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t dx = vsubq_f64(vld1q_f64(xs + i), vcx);
    const float64x2_t dy = vsubq_f64(vld1q_f64(ys + i), vcy);
    vst1q_f64(out + i, vaddq_f64(vmulq_f64(dx, dx), vmulq_f64(dy, dy)));
  }
  squared_distances_scalar(xs + i, ys + i, n - i, cx, cy, out + i);
}

namespace detail {

/// Vector twin of detail::ipow — same h-1 multiplies, same association.
/// vmulq is never contracted into an FMA.
inline float64x2_t ipow(float64x2_t x, int h) {
  float64x2_t r = x;
  for (int k = 1; k < h; ++k) r = vmulq_f64(r, x);
  return r;
}

}  // namespace detail

inline SinrAccum sinr_gather(const double* xs, const double* ys,
                             const double* ws, std::size_t n, double cx,
                             double cy, double cutoff_factor, double kappa,
                             int half_alpha, double sig) {
  const float64x2_t vcx = vdupq_n_f64(cx);
  const float64x2_t vcy = vdupq_n_f64(cy);
  const float64x2_t vcf = vdupq_n_f64(cutoff_factor);
  const float64x2_t vkappa = vdupq_n_f64(kappa);
  const float64x2_t vsig = vdupq_n_f64(sig);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  // Lane 0 of vacc is the scalar reference's acc0, lane 1 its acc1.
  float64x2_t vacc = vdupq_n_f64(0.0);
  std::uint64_t significant = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t dx = vsubq_f64(vld1q_f64(xs + i), vcx);
    const float64x2_t dy = vsubq_f64(vld1q_f64(ys + i), vcy);
    const float64x2_t d2 = vaddq_f64(vmulq_f64(dx, dx), vmulq_f64(dy, dy));
    const float64x2_t w = vld1q_f64(ws + i);
    const uint64x2_t elig = vandq_u64(
        vandq_u64(vcgtq_f64(w, vzero), vcgtq_f64(d2, vzero)),
        vcleq_f64(d2, vmulq_f64(w, vcf)));
    // Divide first, mask after: an ineligible lane may produce inf/NaN
    // (d2 == 0), but and-with-mask zeroes its bits, and adding the
    // resulting +0.0 matches the scalar reference's `acc += 0.0` exactly.
    const float64x2_t raw =
        vdivq_f64(vmulq_f64(vkappa, detail::ipow(w, half_alpha)),
                  detail::ipow(d2, half_alpha));
    const float64x2_t c =
        vreinterpretq_f64_u64(vandq_u64(elig, vreinterpretq_u64_f64(raw)));
    vacc = vaddq_f64(vacc, c);
    // Significance is a property of *eligible* lanes only: intersect with
    // elig so a masked-out lane's +0.0 cannot count when sig <= 0 (the
    // scalar reference never reaches its comparison for those lanes).
    const uint64x2_t sigm = vandq_u64(elig, vcgeq_f64(c, vsig));
    significant +=
        (vgetq_lane_u64(sigm, 0) & 1) + (vgetq_lane_u64(sigm, 1) & 1);
  }
  SinrAccum out;
  out.power = vgetq_lane_f64(vacc, 0) + vgetq_lane_f64(vacc, 1);
  out.significant = significant;
  const SinrAccum tail =
      sinr_gather_scalar(xs + i, ys + i, ws + i, n - i, cx, cy, cutoff_factor,
                         kappa, half_alpha, sig);
  out.power += tail.power;
  out.significant += tail.significant;
  return out;
}

inline void sinr_scatter(const double* xs, const double* ys, std::size_t n,
                         double cx, double cy, double cutoff2, double power,
                         int half_alpha, double* out) {
  const float64x2_t vcx = vdupq_n_f64(cx);
  const float64x2_t vcy = vdupq_n_f64(cy);
  const float64x2_t vc2 = vdupq_n_f64(cutoff2);
  const float64x2_t vp = vdupq_n_f64(power);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t dx = vsubq_f64(vld1q_f64(xs + i), vcx);
    const float64x2_t dy = vsubq_f64(vld1q_f64(ys + i), vcy);
    const float64x2_t d2 = vaddq_f64(vmulq_f64(dx, dx), vmulq_f64(dy, dy));
    const uint64x2_t elig =
        vandq_u64(vcgtq_f64(d2, vzero), vcleq_f64(d2, vc2));
    const float64x2_t c = vreinterpretq_f64_u64(vandq_u64(
        elig,
        vreinterpretq_u64_f64(vdivq_f64(vp, detail::ipow(d2, half_alpha)))));
    vst1q_f64(out + i, c);
  }
  sinr_scatter_scalar(xs + i, ys + i, n - i, cx, cy, cutoff2, power,
                      half_alpha, out + i);
}

inline void increment_within(const double* xs, const double* ys,
                             std::size_t n, double cx, double cy, double r2,
                             std::uint32_t* counts) {
  const float64x2_t vcx = vdupq_n_f64(cx);
  const float64x2_t vcy = vdupq_n_f64(cy);
  const float64x2_t vr2 = vdupq_n_f64(r2);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t dx = vsubq_f64(vld1q_f64(xs + i), vcx);
    const float64x2_t dy = vsubq_f64(vld1q_f64(ys + i), vcy);
    const float64x2_t d2 = vaddq_f64(vmulq_f64(dx, dx), vmulq_f64(dy, dy));
    const uint64x2_t in = vcleq_f64(d2, vr2);
    counts[i] += static_cast<std::uint32_t>(vgetq_lane_u64(in, 0) & 1);
    counts[i + 1] += static_cast<std::uint32_t>(vgetq_lane_u64(in, 1) & 1);
  }
  increment_within_scalar(xs + i, ys + i, n - i, cx, cy, r2, counts + i);
}

inline void sinr_fold(const double* contrib, std::size_t n, double sig,
                      double* power, std::uint32_t* significant) {
  const float64x2_t vsig = vdupq_n_f64(sig);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t c = vld1q_f64(contrib + i);
    vst1q_f64(power + i, vaddq_f64(vld1q_f64(power + i), c));
    // c != 0 is the complement of c == 0 (true for NaN, as in the scalar
    // reference); c >= sig is false for NaN.
    const uint64x2_t sigm = vandq_u64(
        veorq_u64(vceqq_f64(c, vzero), vdupq_n_u64(~std::uint64_t{0})),
        vcgeq_f64(c, vsig));
    significant[i] += static_cast<std::uint32_t>(vgetq_lane_u64(sigm, 0) & 1);
    significant[i + 1] +=
        static_cast<std::uint32_t>(vgetq_lane_u64(sigm, 1) & 1);
  }
  sinr_fold_scalar(contrib + i, n - i, sig, power + i, significant + i);
}

#else  // scalar backend

inline CoverageCounts count_coverage(const double* xs, const double* ys,
                                     const double* ws, std::size_t n,
                                     double cx, double cy, double query_r2) {
  return count_coverage_scalar(xs, ys, ws, n, cx, cy, query_r2);
}

inline void squared_distances(const double* xs, const double* ys,
                              std::size_t n, double cx, double cy,
                              double* out) {
  squared_distances_scalar(xs, ys, n, cx, cy, out);
}

inline SinrAccum sinr_gather(const double* xs, const double* ys,
                             const double* ws, std::size_t n, double cx,
                             double cy, double cutoff_factor, double kappa,
                             int half_alpha, double sig) {
  return sinr_gather_scalar(xs, ys, ws, n, cx, cy, cutoff_factor, kappa,
                            half_alpha, sig);
}

inline void sinr_scatter(const double* xs, const double* ys, std::size_t n,
                         double cx, double cy, double cutoff2, double power,
                         int half_alpha, double* out) {
  sinr_scatter_scalar(xs, ys, n, cx, cy, cutoff2, power, half_alpha, out);
}

inline void increment_within(const double* xs, const double* ys,
                             std::size_t n, double cx, double cy, double r2,
                             std::uint32_t* counts) {
  increment_within_scalar(xs, ys, n, cx, cy, r2, counts);
}

inline void sinr_fold(const double* contrib, std::size_t n, double sig,
                      double* power, std::uint32_t* significant) {
  sinr_fold_scalar(contrib, n, sig, power, significant);
}

#endif

#undef RIM_SIMD_NO_CONTRACT

}  // namespace rim::simd
