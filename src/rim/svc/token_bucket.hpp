#pragma once

#include <cstdint>

#include "rim/common/mutex.hpp"
#include "rim/common/thread_annotations.hpp"

/// \file token_bucket.hpp
/// Per-tenant fair admission for the scenario service (DESIGN.md §10).
///
/// The global in-flight gate (Frontend::try_admit) protects the process from
/// aggregate overload but is first-come-first-served: one hog tenant
/// hammering the service starves everyone behind the same gate. Each
/// session therefore carries its own TokenBucket — tokens refill at a
/// configured steady rate up to a burst cap, and every session command
/// spends one. A tenant that exceeds its rate is shed with the same
/// explicit "overloaded" envelope as the global gate (sheds, never queues),
/// while well-behaved tenants keep their full rate.
///
/// Time is injected by the caller (obs::now_ns() in production), so tests
/// drive the bucket with a synthetic clock and stay deterministic.

namespace rim::svc {

class TokenBucket {
 public:
  /// \p rate_per_s tokens accrue per second up to \p burst; a
  /// non-positive rate disables the bucket (try_acquire always succeeds).
  /// The bucket starts full, so a tenant's first `burst` commands are
  /// never shed.
  TokenBucket(double rate_per_s, double burst)
      : rate_per_s_(rate_per_s), burst_(burst < 1.0 ? 1.0 : burst),
        tokens_(burst_) {}

  [[nodiscard]] bool enabled() const { return rate_per_s_ > 0.0; }

  /// Refill from the elapsed time since the last call, then try to spend
  /// one token. \p now_ns must come from a monotonic clock; a stale
  /// timestamp (time moving backwards across threads) refills nothing
  /// rather than faulting.
  [[nodiscard]] bool try_acquire(std::uint64_t now_ns) RIM_EXCLUDES(mutex_) {
    if (!enabled()) return true;
    common::MutexLock lock(mutex_);
    refill_locked(now_ns);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  /// Current token count after refilling to \p now_ns (metrics/tests).
  [[nodiscard]] double tokens(std::uint64_t now_ns) RIM_EXCLUDES(mutex_) {
    if (!enabled()) return burst_;
    common::MutexLock lock(mutex_);
    refill_locked(now_ns);
    return tokens_;
  }

  [[nodiscard]] double rate_per_s() const { return rate_per_s_; }
  [[nodiscard]] double burst() const { return burst_; }

 private:
  void refill_locked(std::uint64_t now_ns) RIM_REQUIRES(mutex_) {
    if (last_ns_ == 0 || now_ns <= last_ns_) {
      // First observation (or a cross-thread stale clock read): anchor the
      // refill window without accruing.
      if (last_ns_ == 0) last_ns_ = now_ns;
      return;
    }
    const double elapsed_s =
        static_cast<double>(now_ns - last_ns_) * 1e-9;
    tokens_ += elapsed_s * rate_per_s_;
    if (tokens_ > burst_) tokens_ = burst_;
    last_ns_ = now_ns;
  }

  const double rate_per_s_;
  const double burst_;

  common::Mutex mutex_;
  double tokens_ RIM_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t last_ns_ RIM_GUARDED_BY(mutex_) = 0;
};

}  // namespace rim::svc
