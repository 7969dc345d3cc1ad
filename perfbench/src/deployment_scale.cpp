/// Workload deployment_scale: the library with no serving layer, called
/// from one thread at default EvalOptions. The input is a 100,000-node
/// uniform deployment (density 12.5) with its nearest-neighbour forest, the
/// E19/E22/E23 tier. Each sub-window of the run does one round of full
/// evaluations through core::Assessor (receiver, sender, SINR) and then
/// applies LocalTrace batches of 256 mutations to one core::Scenario
/// (kWave executor), each followed by max_interference(), at least 1,000
/// batches in all. SIMD kernels,
/// parallel evaluation, SINR and the batch executors do all the work; svc
/// and shard do none.

#include <algorithm>
#include <array>

#include "local_trace.hpp"
#include "rim/core/assessor.hpp"
#include "rim/core/scenario.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rim::core::Model;
using rim::core::Mutation;
using rim::core::Scenario;

constexpr std::size_t kNodes = 100000;
constexpr double kDensity = 12.5;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kMinBatches = 1000;
constexpr std::size_t kWarmupBatches = 50;
/// LocalTrace's moves random-walk, so over many hundred batches at this
/// size a few edges stretch until batches start deferring to full
/// evaluations. The scenario therefore runs cycles of this many batches and
/// is reset to its set-up state (outside the timing) before each cycle:
/// every cycle measures the same stationary churn.
constexpr std::size_t kCycleBatches = 250;
/// Independent LocalTrace streams the cycles rotate through, so the tail
/// quantiles reflect many distinct batches rather than one cycle's few
/// heaviest.
constexpr std::size_t kCycles = 8;
/// Sub-windows of the measured window, each one evaluation round + batches.
constexpr std::size_t kSlices = 16;
constexpr int kSetupRepeats = 7;

struct ModelSpec {
  Model model;
  const char* name;
};
constexpr std::array<ModelSpec, 3> kModels = {{
    {Model::kReceiverCentric, "receiver"},
    {Model::kSenderCentric, "sender"},
    {Model::kSinr, "sinr"},
}};

std::uint64_t checksum(const std::vector<std::uint32_t>& per_node) {
  return rim::bench::fnv1a_interference(per_node);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

}  // namespace

Report run_deployment_scale(const RunOptions& options) {
  Report report;
  const rim::core::Assessor assessor;

  // --- set-up: deployment, NNF, Scenario build (median of kSetupRepeats) ---
  std::vector<double> deploy_ms;
  std::vector<double> topology_ms;
  std::vector<double> seed_ms;
  std::vector<double> setup_s;
  Deployment d;
  std::unique_ptr<Scenario> scenario;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    scenario.reset();
    d = make_deployment(kNodes, kDensity, derive_seed(options.seed, 0));
    const auto t0 = Clock::now();
    scenario = std::make_unique<Scenario>(d.points, d.topology,
                                          rim::core::EvalOptions{});
    (void)scenario->interference();
    // Build the persistent spatial index now rather than inside the first
    // timed batch (apply_batch builds it lazily).
    (void)scenario->nearest_node(d.points.front());
    const double build_ms = ms_between(t0, Clock::now());
    deploy_ms.push_back(d.deploy_ms);
    topology_ms.push_back(d.topology_ms);
    seed_ms.push_back(build_ms);
    setup_s.push_back((d.deploy_ms + d.topology_ms + build_ms) / 1e3);
  }

  std::vector<std::vector<Mutation>> batches;  // kCycles x kCycleBatches
  batches.reserve(kCycles * kCycleBatches);
  for (std::size_t c = 0; c < kCycles; ++c) {
    rim::bench::LocalTrace trace(d.points, d.side, derive_seed(options.seed, 1 + c));
    for (std::size_t b = 0; b < kCycleBatches; ++b) {
      batches.push_back(trace.next_batch(kBatch));
    }
  }
  const Scenario pristine = *scenario;
  report.note("inputs: seed " + std::to_string(options.seed) +
              ", 1 thread, one scenario of " + std::to_string(kNodes) +
              " nodes (NNF, density 12.5), batch size " + std::to_string(kBatch) +
              ", models receiver/sender/sinr interleaved");

  // One full evaluation; with tracing on it is a span and its CPU time is
  // sampled.
  const auto evaluate = [&](const ModelSpec& spec, bool traced, double& cpu_s) {
    ScopedSpan span(Layer::kAssessor);
    if (span.active()) span.set_class(Cls::kEval);
    const double cpu0 = traced ? process_cpu_s() : 0.0;
    rim::core::InterferenceSummary summary = assessor.assess(
        d.topology, d.points, rim::core::EvalOptions{}.with_model(spec.model));
    if (traced) cpu_s = process_cpu_s() - cpu0;
    return summary;
  };
  std::array<std::vector<double>, 3> eval_ms;
  std::array<double, 3> eval_cpu_s{};
  std::array<double, 3> eval_traced_wall_s{};
  std::array<std::uint64_t, 3> model_checksum{};
  std::uint64_t checksum_mismatches = 0;
  {  // warm-up: one round and a few batches, then back to the set-up state
    double cpu = 0.0;
    for (std::size_t m = 0; m < kModels.size(); ++m) {
      model_checksum[m] = checksum(evaluate(kModels[m], false, cpu).per_node);
      ++report.attempted;
    }
    for (std::size_t b = 0; b < kWarmupBatches; ++b) {
      (void)scenario->apply_batch(batches[b]);
      (void)scenario->max_interference();
      ++report.attempted;
    }
    *scenario = pristine;
  }

  // The window is cut into kSlices sub-windows. Each runs one evaluation
  // round (receiver, sender, SINR), a read, and then batches, the writes,
  // until it ends. Reads and writes count from the quieter half of the
  // sub-windows, as in the serving workloads (report_latencies). With
  // --trace 1 the odd sub-windows are traced and the even ones give the
  // overhead.
  std::vector<ClientLog> logs(1);
  ClientLog& log = logs.front();
  std::vector<double> steal;  // host steal share per sub-window
  double apply_us_sum = 0.0;
  double batch_cpu_s = 0.0;
  double batch_wall_s = 0.0;
  double traced_batch_us = 0.0;
  double plain_batch_us = 0.0;
  std::size_t plain_batches = 0;
  std::size_t deferred = 0;
  std::size_t disk_tasks = 0;
  std::size_t waves = 0;
  std::size_t traced_batches = 0;
  std::size_t done = 0;
  const auto slice_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.seconds / kSlices));
  Clock::time_point slice_end = Clock::now();
  const auto run_batch = [&](std::size_t slice, bool traced) {
    const std::size_t b = done % (kCycles * kCycleBatches);
    if (b % kCycleBatches == 0 && done > 0) {  // next cycle: reset, untimed
      const auto r0 = Clock::now();
      *scenario = pristine;
      slice_end += Clock::now() - r0;
    }
    const double cpu0 = traced ? process_cpu_s() : 0.0;
    const auto t0 = Clock::now();
    rim::core::BatchResult result;
    {
      ScopedSpan span(Layer::kScenario);
      if (span.active()) span.set_class(Cls::kBatch);
      result = scenario->apply_batch(batches[b]);
    }
    const auto t1 = Clock::now();
    (void)scenario->max_interference();
    const auto t2 = Clock::now();
    ++done;
    ++report.attempted;
    const double us = seconds_between(t0, t2) * 1e6;
    log.record(false, slice, us);
    deferred += result.deferred ? 1 : 0;
    if (traced) {
      traced_batch_us += us;
      batch_cpu_s += process_cpu_s() - cpu0;
      batch_wall_s += seconds_between(t0, t2);
      apply_us_sum += seconds_between(t0, t1) * 1e6;
      disk_tasks += result.disk_tasks;
      waves += result.waves;
      ++traced_batches;
    } else {
      plain_batch_us += us;
      ++plain_batches;
    }
  };
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    const CpuTicks ticks = cpu_ticks();
    const auto slice_start = Clock::now();
    slice_end = slice_start + slice_length;
    const bool traced = options.trace && slice % 2 == 1;
    set_tracing(traced);
    double round_us = 0.0;
    for (std::size_t m = 0; m < kModels.size(); ++m) {
      double cpu = 0.0;
      const auto t0 = Clock::now();
      const rim::core::InterferenceSummary summary =
          evaluate(kModels[m], traced, cpu);
      const auto t1 = Clock::now();
      ++report.attempted;
      if (checksum(summary.per_node) != model_checksum[m]) {
        ++checksum_mismatches;
        ++report.failed;
      }
      eval_ms[m].push_back(ms_between(t0, t1));
      round_us += seconds_between(t0, t1) * 1e6;
      if (traced) {
        eval_cpu_s[m] += cpu;
        eval_traced_wall_s[m] += seconds_between(t0, t1);
      }
    }
    log.record(true, slice, round_us);
    while (Clock::now() < slice_end) run_batch(slice, traced);
    steal.push_back(steal_fraction(ticks, cpu_ticks()));
  }
  while (done < kMinBatches) {  // short windows: top up to kMinBatches
    const bool traced = options.trace && done % 2 == 1;
    set_tracing(traced);
    run_batch(kSlices - 1, traced);
  }
  set_tracing(false);
  if (checksum_mismatches > 0) {
    report.fail_check(std::to_string(checksum_mismatches) +
                      " evaluations differ from their model's first checksum");
  }
  report.note("batches: " + std::to_string(done) + " in cycles of " +
              std::to_string(kCycleBatches) + ", " + std::to_string(deferred) +
              " deferred to a full evaluation");

  // --- output check: the churned scenario against a fresh evaluation ---
  {
    const auto view = scenario->interference();
    const std::vector<std::uint32_t> churned(view.begin(), view.end());
    const rim::core::InterferenceSummary fresh =
        assessor.assess(scenario->topology(), scenario->points());
    ++report.attempted;
    if (fresh.per_node != churned) {
      ++report.failed;
      report.fail_check("churned scenario differs from a fresh evaluation");
    }
  }

  // --- metrics ---
  const QuietSamples samples =
      report_latencies(report, logs, steal, options.seconds / kSlices);
  auto& E = report.end_to_end;
  // Batches per second at the median batch: the reciprocal of
  // mutate_p50_us, reported because every workload reports ops_per_s. A
  // rate from the mean would follow the host instead: a parallel wave
  // waits for its slowest worker, so the few batches the hypervisor stalls
  // set the mean (at 4% host steal, p99 was 3x p50 and a mean-based rate
  // spread 0.5 across seeds). Counting the evaluation rounds in would make
  // the rate follow the read/write mix, which shifts with batch speed.
  E["ops_per_s"] = {1e6 / E["mutate_p50_us"].value, "1/s"};
  E["setup_s"] = {median(setup_s), "s"};
  E["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  std::string per_model;
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    if (m > 0) per_model += ", ";
    per_model += std::string("eval_") + kModels[m].name + "_ms " +
                 std::to_string(median(eval_ms[m]));
  }
  report.note("a read is one evaluation round (3 models), a mutate one batch; " +
              per_model);
  report.note("requests by class: evaluations " +
              std::to_string(3 * log.read_us.size()) + ", batches " +
              std::to_string(done));

  if (options.trace) {
    auto& L = report.per_layer;
    for (std::size_t m = 0; m < kModels.size(); ++m) {
      L[std::string("assessor.eval_") + kModels[m].name + "_ms"] = {
          median(eval_ms[m]), "ms"};
      L[std::string("eval.cpu_per_wall.") + kModels[m].name] = {
          eval_traced_wall_s[m] <= 0.0 ? 0.0
                                       : eval_cpu_s[m] / eval_traced_wall_s[m],
          "ratio"};
    }
    const double n = static_cast<double>(std::max<std::size_t>(traced_batches, 1));
    L["scenario.apply_batch_us"] = {apply_us_sum / n, "us"};
    L["scenario.deferred_frac"] = {
        static_cast<double>(deferred) / static_cast<double>(std::max<std::size_t>(done, 1)),
        "ratio"};
    L["scenario.disk_tasks_per_batch"] = {static_cast<double>(disk_tasks) / n,
                                          "count"};
    L["scenario.waves_per_batch"] = {static_cast<double>(waves) / n, "count"};
    L["scenario.batch_cpu_per_wall"] = {
        batch_wall_s <= 0.0 ? 0.0 : batch_cpu_s / batch_wall_s, "ratio"};
    L["setup.deploy_ms"] = {median(deploy_ms), "ms"};
    L["setup.topology_ms"] = {median(topology_ms), "ms"};
    L["setup.seed_ms"] = {median(seed_ms), "ms"};
    const double plain = plain_batch_us / static_cast<double>(std::max<std::size_t>(plain_batches, 1));
    const double with = traced_batch_us / n;
    L["trace.overhead_frac"] = {plain <= 0.0 ? 0.0 : with / plain - 1.0, "ratio"};
    write_span_dump(report, collect_spans(), options);
  }
  return report;
}

}  // namespace perfbench
