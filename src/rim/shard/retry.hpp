#pragma once

#include <cstddef>
#include <cstdint>

/// \file retry.hpp
/// Deterministic retry/backoff schedule for backend health probing
/// (DESIGN.md §14).
///
/// The schedule is a pure function of the failure count — base × mult^n,
/// clamped to a cap — with *no jitter*: the router is a single process in
/// front of a handful of backends, so thundering-herd protection buys
/// nothing, while a reproducible schedule makes the failover state
/// machine unit-testable against an injected clock
/// (tests/shard_router_test.cpp pins the exact deadline sequence).
///
/// Backoff carries the mutable side (failure count + next-allowed-at
/// deadline). It takes every timestamp as a parameter instead of reading
/// a clock, so tests drive it with synthetic time; the router feeds it
/// obs::now_ns() (the project's one sanctioned wall-clock door).

namespace rim::shard {

struct BackoffPolicy {
  std::uint64_t base_delay_ns = 50'000'000;  ///< first retry: 50ms
  double multiplier = 2.0;
  std::uint64_t max_delay_ns = 2'000'000'000;  ///< clamp: 2s
  /// Consecutive failures after which the target is declared dead
  /// (kSuspect → kDown in the failover state machine).
  std::size_t max_attempts = 4;

  /// Delay before retry number \p failures (1-based: the delay after the
  /// first failure is delay_ns(1) == base_delay_ns). Pure and total.
  [[nodiscard]] std::uint64_t delay_ns(std::size_t failures) const {
    if (failures == 0) return 0;
    double delay = static_cast<double>(base_delay_ns);
    for (std::size_t i = 1; i < failures; ++i) {
      delay *= multiplier;
      if (delay >= static_cast<double>(max_delay_ns)) {
        return max_delay_ns;
      }
    }
    const auto clamped = static_cast<std::uint64_t>(delay);
    return clamped > max_delay_ns ? max_delay_ns : clamped;
  }
};

/// Failure counter + deadline tracker for one probe target.
class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy) : policy_(policy) {}

  /// Record a failure observed at \p now_ns; the next attempt is allowed
  /// at the returned deadline.
  std::uint64_t on_failure(std::uint64_t now_ns) {
    ++failures_;
    deadline_ns_ = now_ns + policy_.delay_ns(failures_);
    return deadline_ns_;
  }

  /// Success resets the schedule.
  void reset() {
    failures_ = 0;
    deadline_ns_ = 0;
  }

  /// True when a retry is allowed at \p now_ns.
  [[nodiscard]] bool due(std::uint64_t now_ns) const {
    return now_ns >= deadline_ns_;
  }

  /// True once max_attempts consecutive failures have accumulated.
  [[nodiscard]] bool exhausted() const {
    return failures_ >= policy_.max_attempts;
  }

  [[nodiscard]] std::size_t failures() const { return failures_; }
  [[nodiscard]] const BackoffPolicy& policy() const { return policy_; }

 private:
  BackoffPolicy policy_;
  std::size_t failures_ = 0;
  std::uint64_t deadline_ns_ = 0;
};

}  // namespace rim::shard
