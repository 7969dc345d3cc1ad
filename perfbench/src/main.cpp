/// perfbench: the repository benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload (point_edits_tcp, routed_churn, deployment_scale) in
/// this process, prints a human-readable report, and ends with one JSON
/// line: {"attempted","correct","failed","metrics"}. With --trace 0 the
/// metrics are the end-to-end ones; with --trace 1 they are the per-layer
/// ones from the traced run, and the spans are written to
/// .perfbench_out/spans-<workload>-seed<n>.jsonl.
/// Exits 1 when any output check failed, 2 on bad usage or a non-Release
/// build.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <string>

#include "rim/analysis/experiment.hpp"
#include "rim/io/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric; each workload reports all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},     {"read_p50_us", "us"},  {"read_p90_us", "us"},
    {"mutate_p50_us", "us"},  {"mutate_p90_us", "us"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Every per-layer metric; a layer a workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"transport.roundtrip_us", "us"},
    {"transport.self_us", "us"},
    {"transport.req_bytes", "B"},
    {"transport.resp_bytes", "B"},
    {"codec.parse_us.query", "us"},
    {"codec.parse_us.edit", "us"},
    {"codec.parse_us.batch", "us"},
    {"codec.parse_us.assess", "us"},
    {"codec.dump_us.query", "us"},
    {"codec.dump_us.edit", "us"},
    {"codec.dump_us.batch", "us"},
    {"codec.dump_us.assess", "us"},
    {"codec.dump_us.snapshot", "us"},
    {"codec.mutation_decode_us.batch", "us"},
    {"codec.mutation_decode_us.assess", "us"},
    {"service.handle_us.query", "us"},
    {"service.handle_us.edit", "us"},
    {"service.handle_us.batch", "us"},
    {"service.handle_us.assess", "us"},
    {"service.handle_us.snapshot", "us"},
    {"service.handle_us.replicate", "us"},
    {"service.self_us.query", "us"},
    {"service.self_us.edit", "us"},
    {"service.self_us.batch", "us"},
    {"service.self_us.assess", "us"},
    {"service.shed_frac", "ratio"},
    {"router.handle_us.query", "us"},
    {"router.handle_us.batch", "us"},
    {"router.handle_us.assess", "us"},
    {"router.self_us.query", "us"},
    {"router.self_us.batch", "us"},
    {"router.self_us.assess", "us"},
    {"router.lock_wait_us", "us"},
    {"router.exchanges_per_req", "count"},
    {"replicator.ship_us", "us"},
    {"replicator.ship_bytes", "B"},
    {"replicator.ships_per_mutate", "count"},
    {"replicator.ship_share", "ratio"},
    {"scenario.apply_batch_us", "us"},
    {"scenario.deferred_frac", "ratio"},
    {"scenario.disk_tasks_per_batch", "count"},
    {"scenario.waves_per_batch", "count"},
    {"scenario.batch_cpu_per_wall", "ratio"},
    {"scenario.query_us", "us"},
    {"scenario.point_op_us", "us"},
    {"scenario.snapshot_us", "us"},
    {"assessor.whatif_us", "us"},
    {"assessor.eval_receiver_ms", "ms"},
    {"assessor.eval_sender_ms", "ms"},
    {"assessor.eval_sinr_ms", "ms"},
    {"eval.cpu_per_wall.receiver", "ratio"},
    {"eval.cpu_per_wall.sender", "ratio"},
    {"eval.cpu_per_wall.sinr", "ratio"},
    {"setup.deploy_ms", "ms"},
    {"setup.topology_ms", "ms"},
    {"setup.seed_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<point_edits_tcp|routed_churn|deployment_scale> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

void print_table(const char* title, const std::map<std::string, Metric>& metrics) {
  std::cout << title << "\n";
  for (const auto& [name, metric] : metrics) {
    std::cout << "  " << std::left << std::setw(34) << name << std::right
              << std::setw(16) << std::setprecision(6) << std::fixed
              << metric.value << "  " << metric.unit << "\n";
  }
  std::cout.unsetf(std::ios::fixed);
}

}  // namespace

namespace perfbench {

void write_span_dump(Report& report, const std::vector<Span>& spans,
                     const RunOptions& options) {
  constexpr std::size_t kMaxSpans = 20000;
  const std::filesystem::path path(options.span_path);
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  if (!dump_spans(spans, options.span_path, kMaxSpans)) {
    report.note("span dump: could not write " + options.span_path);
    return;
  }
  report.note("span dump: " + std::to_string(std::min(kMaxSpans, spans.size())) +
              " of " + std::to_string(spans.size()) + " spans -> " +
              options.span_path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && options.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  options.span_path = ".perfbench_out/spans-" + workload + "-seed" +
                      std::to_string(options.seed) + ".jsonl";

  rim::io::JsonObject stamp;
  rim::analysis::stamp_bench(stamp);
  const std::string* build_type = stamp["build_type"].as_string();
  if (build_type == nullptr || *build_type != "Release") {
    std::cerr << "perfbench: refusing to measure a non-Release build ("
              << (build_type != nullptr ? *build_type : "?") << ")\n";
    return 2;
  }

  Report report;
  if (workload == "point_edits_tcp") {
    report = perfbench::run_point_edits(options);
  } else if (workload == "routed_churn") {
    report = perfbench::run_routed_churn(options);
  } else if (workload == "deployment_scale") {
    report = perfbench::run_deployment_scale(options);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  // The JSON metrics follow the catalogues above: every end-to-end metric
  // must have been measured; per-layer metrics a workload does not exercise
  // read 0, and a name outside the catalogue is a bug in this benchmark.
  const auto metric_json = [](double value, const char* unit) {
    rim::io::JsonObject m;
    m["value"] = rim::io::Json(value);
    m["unit"] = rim::io::Json(std::string(unit));
    return rim::io::Json(std::move(m));
  };
  rim::io::JsonObject metrics;
  for (const auto& [name, metric] : report.per_layer) {
    const bool known = std::any_of(
        std::begin(kPerLayer), std::end(kPerLayer),
        [&name = name](const MetricSpec& spec) { return name == spec.name; });
    if (!known) report.fail_check("per-layer metric " + name + " is not catalogued");
  }
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = report.per_layer.find(spec.name);
      metrics[spec.name] = metric_json(
          it != report.per_layer.end() ? it->second.value : 0.0, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = report.end_to_end.find(spec.name);
      if (it == report.end_to_end.end()) {
        report.fail_check(std::string("metric ") + spec.name + " was not measured");
        continue;
      }
      metrics[spec.name] = metric_json(it->second.value, spec.unit);
    }
  }
  if (report.attempted == 0) report.fail_check("no operation was attempted");

  std::cout << "perfbench " << workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << " " << rim::io::Json(stamp).dump() << "\n";
  for (const std::string& line : report.notes) std::cout << "  " << line << "\n";
  const double failed_frac =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::cout << "  attempted " << report.attempted << ", failed "
            << report.failed << " (failed_frac " << failed_frac << ")\n";
  print_table("end-to-end:", report.end_to_end);
  if (options.trace) print_table("per-layer (traced run):", report.per_layer);

  rim::io::JsonObject result;
  result["correct"] = rim::io::Json(report.correct);
  result["attempted"] = rim::io::Json(report.attempted);
  result["failed"] = rim::io::Json(report.failed);
  result["metrics"] = rim::io::Json(std::move(metrics));
  std::cout << rim::io::Json(std::move(result)).dump() << std::endl;
  return report.correct ? 0 : 1;
}
