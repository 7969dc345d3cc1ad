#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

/// \file serving.hpp
/// The closed-loop measurement shared by the two serving workloads, and the
/// quiet-sub-window pooling every workload reports its latencies with.
///
/// Client threads each send their next request only after the previous
/// reply. Every request is timed around its svc::Client call. The window
/// starts after a short warm-up. With --trace 1 it is cut into four equal
/// sub-windows, untraced and traced by turns, so the traced requests can be
/// compared with untraced ones from the same process (trace.overhead_frac).

namespace perfbench {

/// Warm-up before the measured window: lazy set-up and caches settle.
[[nodiscard]] inline double warmup_seconds(double seconds) {
  return std::min(1.0, 0.1 * seconds);
}

/// Sub-windows of the measured window. The host's steal time is sampled at
/// every boundary, and latency quantiles and throughput are computed over
/// the pooled samples of the quieter half of the sub-windows
/// (quiet_slices): on a shared virtual machine, CPU time the hypervisor
/// gives to other guests stalls requests in ways the program does not
/// cause. With --trace 1 there are four sub-windows, untraced and traced by
/// turns.
inline constexpr std::size_t kTraceSlices = 4;

/// Latencies one client thread measured, with the sub-window each request
/// started in.
struct ClientLog {
  std::vector<double> read_us;
  std::vector<double> mutate_us;
  std::vector<std::uint8_t> read_slice;
  std::vector<std::uint8_t> mutate_slice;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  /// Room for \p n requests of each class, so the logs never reallocate
  /// during the window: a doubling copy of a log would show in
  /// peak_rss_mb and tie it to how many requests the run completed.
  void reserve(std::size_t n) {
    read_us.reserve(n);
    mutate_us.reserve(n);
    read_slice.reserve(n);
    mutate_slice.reserve(n);
  }
  void record(bool is_read, std::size_t slice, double us) {
    (is_read ? read_us : mutate_us).push_back(us);
    (is_read ? read_slice : mutate_slice)
        .push_back(static_cast<std::uint8_t>(slice));
  }
  void fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

struct Window {
  Clock::time_point start;
  Clock::time_point end;
  std::size_t slices = 1;

  /// Sub-window of \p t, or slices when \p t is outside the window.
  [[nodiscard]] std::size_t slice_of(Clock::time_point t) const {
    if (t < start || t >= end) return slices;
    const double f = seconds_between(start, t) / seconds_between(start, end);
    return std::min(slices - 1, static_cast<std::size_t>(f * static_cast<double>(slices)));
  }
  [[nodiscard]] double slice_seconds() const {
    return seconds_between(start, end) / static_cast<double>(slices);
  }
};

/// The measured window after warm-up, cut into \p slices sub-windows
/// (kTraceSlices with \p trace).
[[nodiscard]] inline Window make_window(double warmup, double seconds,
                                        std::size_t slices, bool trace) {
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  Window window;
  window.start = Clock::now() + to_duration(warmup);
  window.end = window.start + to_duration(seconds);
  window.slices = trace ? kTraceSlices : slices;
  return window;
}

/// Holds the calling thread until the window ends and returns the share of
/// CPU time the host stole in each sub-window. With \p trace, turns
/// tracing on for the odd sub-windows.
inline std::vector<double> drive_window(const Window& window, bool trace) {
  const auto slice_length = (window.end - window.start) /
                            static_cast<long>(window.slices);
  std::vector<CpuTicks> ticks;
  for (std::size_t slice = 0; slice <= window.slices; ++slice) {
    std::this_thread::sleep_until(window.start + slice_length * slice);
    ticks.push_back(cpu_ticks());
    set_tracing(trace && slice % 2 == 1 && slice < window.slices);
  }
  std::vector<double> steal;
  for (std::size_t slice = 0; slice < window.slices; ++slice) {
    steal.push_back(steal_fraction(ticks[slice], ticks[slice + 1]));
  }
  return steal;
}

/// Pooled, sorted latencies of one request class over the selected
/// sub-windows of every client.
[[nodiscard]] inline std::vector<double> pooled(const std::vector<ClientLog>& logs,
                                                bool reads,
                                                const std::vector<bool>& selected) {
  std::vector<double> samples;
  for (const ClientLog& log : logs) {
    const auto& us = reads ? log.read_us : log.mutate_us;
    const auto& slice = reads ? log.read_slice : log.mutate_slice;
    for (std::size_t i = 0; i < us.size(); ++i) {
      if (selected[slice[i]]) samples.push_back(us[i]);
    }
  }
  std::sort(samples.begin(), samples.end());
  return samples;
}

/// Read and write latencies pooled over the quieter half of the sub-windows.
struct QuietSamples {
  std::vector<double> reads;
  std::vector<double> writes;
  std::size_t slices = 0;  ///< sub-windows pooled
};

/// The latency quantiles of every workload: pools the samples of the
/// sub-windows quiet_slices keeps, sets read/mutate p50 and p90, and notes
/// the sample counts and each sub-window's steal share. Whole sub-windows
/// are kept or left out, so a slow request is no likelier to be dropped
/// than a fast one. The tail is p90, not p99: on a shared virtual machine
/// the slowest percent of requests are the ones the hypervisor stalled, so
/// p99 followed the host's steal (it spread 0.25 to 0.7 across seeds where
/// p90 spread 0.1 to 0.2) rather than the program.
inline QuietSamples report_latencies(Report& report,
                                     const std::vector<ClientLog>& logs,
                                     const std::vector<double>& steal,
                                     double slice_seconds) {
  const std::vector<bool> quiet = quiet_slices(steal);
  QuietSamples samples{
      pooled(logs, true, quiet), pooled(logs, false, quiet),
      static_cast<std::size_t>(std::count(quiet.begin(), quiet.end(), true))};
  report.end_to_end["read_p50_us"] = {quantile(samples.reads, 0.50), "us"};
  report.end_to_end["read_p90_us"] = {quantile(samples.reads, 0.90), "us"};
  report.end_to_end["mutate_p50_us"] = {quantile(samples.writes, 0.50), "us"};
  report.end_to_end["mutate_p90_us"] = {quantile(samples.writes, 0.90), "us"};
  // Context only: how steal and the medians moved across the window.
  std::string per_slice;
  std::string slice_p50;
  for (std::size_t s = 0; s < steal.size(); ++s) {
    if (s > 0) per_slice += ' ';
    per_slice += std::to_string(steal[s] * 100.0).substr(0, 4);
    per_slice += quiet[s] ? "%" : "%(skipped)";
    std::vector<bool> only(steal.size(), false);
    only[s] = true;
    slice_p50 += ' ' + std::to_string(std::lround(quantile(pooled(logs, true, only), 0.5))) +
                 '/' + std::to_string(std::lround(quantile(pooled(logs, false, only), 0.5)));
  }
  report.note("samples: read n=" + std::to_string(samples.reads.size()) +
              ", mutate n=" + std::to_string(samples.writes.size()) + " from " +
              std::to_string(samples.slices) + " of " + std::to_string(steal.size()) + " sub-windows of " +
              std::to_string(slice_seconds) + " s");
  report.note("host steal per sub-window: " + per_slice);
  report.note("read/mutate p50 per sub-window (us):" + slice_p50);
  return samples;
}

/// End-to-end metrics of a serving workload from its clients' logs and the
/// steal share of each sub-window.
inline void report_serving(Report& report, const std::vector<ClientLog>& logs,
                           const Window& window,
                           const std::vector<double>& steal, double setup_s) {
  const QuietSamples samples =
      report_latencies(report, logs, steal, window.slice_seconds());
  report.end_to_end["ops_per_s"] = {
      static_cast<double>(samples.reads.size() + samples.writes.size()) /
          (static_cast<double>(samples.slices) * window.slice_seconds()),
      "1/s"};
  report.end_to_end["setup_s"] = {setup_s, "s"};
}

/// trace.overhead_frac: mean latency in the traced sub-windows over the
/// untraced ones, minus one.
inline double tracing_overhead(const std::vector<ClientLog>& logs) {
  double sum[2] = {0.0, 0.0};
  std::size_t n[2] = {0, 0};
  for (const ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.read_us.size(); ++i) {
      sum[log.read_slice[i] % 2] += log.read_us[i];
      ++n[log.read_slice[i] % 2];
    }
    for (std::size_t i = 0; i < log.mutate_us.size(); ++i) {
      sum[log.mutate_slice[i] % 2] += log.mutate_us[i];
      ++n[log.mutate_slice[i] % 2];
    }
  }
  if (n[0] == 0 || n[1] == 0 || sum[0] <= 0.0) return 0.0;
  return (sum[1] / static_cast<double>(n[1])) /
             (sum[0] / static_cast<double>(n[0])) -
         1.0;
}

/// Mean span duration (us) of \p layer, optionally restricted to \p cls.
struct SpanMeans {
  double sum_us = 0.0;
  double req_bytes = 0.0;
  double resp_bytes = 0.0;
  std::size_t count = 0;

  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0 : sum_us / static_cast<double>(count);
  }
  [[nodiscard]] double mean_req_bytes() const {
    return count == 0 ? 0.0 : req_bytes / static_cast<double>(count);
  }
  [[nodiscard]] double mean_resp_bytes() const {
    return count == 0 ? 0.0 : resp_bytes / static_cast<double>(count);
  }
};

[[nodiscard]] inline SpanMeans span_means(const std::vector<Span>& spans,
                                          Layer layer,
                                          Cls cls = Cls::kCount) {
  SpanMeans m;
  for (const Span& s : spans) {
    if (s.layer != layer || (cls != Cls::kCount && s.cls != cls)) continue;
    m.sum_us += s.us();
    m.req_bytes += s.req_bytes;
    m.resp_bytes += s.resp_bytes;
    ++m.count;
  }
  return m;
}

}  // namespace perfbench
