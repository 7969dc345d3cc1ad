#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// \file stats.hpp
/// Sample statistics and process probes shared by every workload.
/// Quantiles come from the raw sorted samples (linear interpolation between
/// closest ranks), never from bucketed histograms.

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Quantile \p q in [0,1] of \p sorted (ascending); 0 when empty.
[[nodiscard]] double quantile(const std::vector<double>& sorted, double q);

/// Median of an unsorted copy.
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// CPU time consumed by every thread of this process, in seconds.
[[nodiscard]] double process_cpu_s();

/// Host CPU accounting of this (virtual) machine, from /proc/stat: ticks
/// the hypervisor ran something else on our CPUs (steal), and all ticks.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Share of CPU time stolen between two readings (0 when unknown).
[[nodiscard]] double steal_fraction(const CpuTicks& from, const CpuTicks& to);

/// The sub-windows measured while the host stole no more CPU time than in
/// the median sub-window (plus one percentage point): the quieter half, or
/// all of them on a quiet host.
[[nodiscard]] std::vector<bool> quiet_slices(const std::vector<double>& steal);

/// FNV-1a over raw bytes.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (printed with --trace 0).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (printed with --trace 1).
  std::map<std::string, Metric> per_layer;
  /// Human-readable context lines (inputs, sample counts, checks).
  std::vector<std::string> notes;

  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a failed output check: the run is incorrect.
  void fail_check(const std::string& what);
};

}  // namespace perfbench
