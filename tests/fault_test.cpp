#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "rim/core/audit.hpp"
#include "rim/core/scenario.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/sim/fault.hpp"
#include "rim/sim/trace.hpp"
#include "rim/sim/workload.hpp"

/// Tests for the fault-injection subsystem: deterministic FaultPlans,
/// crash-abort semantics, and the headline acceptance property —
/// crash-restore-replay equivalence at EVERY fault point of a ~1k-step
/// seeded trace (the recovered end state is bit-identical to the
/// uninjected run's).

namespace rim::sim {
namespace {

using core::Mutation;
using core::Scenario;
using core::Snapshot;

WorkloadConfig trace_config() {
  WorkloadConfig config;
  config.initial_nodes = 64;
  config.batch_size = 32;
  config.seed = 17;
  return config;
}

TEST(FaultPlanTest, GenerationIsDeterministic) {
  const FaultPlan a = FaultPlan::generate(42, 200, 0.3);
  const FaultPlan b = FaultPlan::generate(42, 200, 0.3);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_GT(a.events().size(), 20u);  // ~60 expected at rate 0.3
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].batch, b.events()[i].batch);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].index, b.events()[i].index);
  }
  EXPECT_TRUE(FaultPlan::generate(42, 200, 0.0).empty());
  const FaultPlan c = FaultPlan::generate(43, 200, 0.3);
  bool differs = c.events().size() != a.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].batch != c.events()[i].batch ||
              a.events()[i].kind != c.events()[i].kind;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same plan";
}

TEST(FaultPlanTest, JsonRoundTrip) {
  const FaultPlan plan = FaultPlan::generate(7, 64, 0.4);
  ASSERT_FALSE(plan.empty());
  const std::string text = plan.to_json().dump();
  io::Json doc;
  std::string error;
  ASSERT_TRUE(io::Json::parse(text, doc, error)) << error;
  FaultPlan back;
  ASSERT_TRUE(FaultPlan::from_json(doc, back, error)) << error;
  EXPECT_EQ(back.to_json().dump(), text);
}

/// \p text with its one occurrence of \p needle replaced by \p value.
std::string replaced(std::string text, const std::string& needle,
                     const std::string& value) {
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << needle;
  EXPECT_EQ(text.find(needle, at + 1), std::string::npos) << needle;
  if (at != std::string::npos) text.replace(at, needle.size(), value);
  return text;
}

/// Every integer field a decoder reads is refused when the document holds
/// a negative, fractional or out-of-range number instead of being cast.
const char* const kBadIntegers[] = {"-1", "0.5", "1e300"};

TEST(FaultPlanTest, DecoderRefusesNonIntegralNumbers) {
  FaultEvent event;
  event.batch = 3;
  event.kind = FaultKind::kDropMutation;
  event.index = 1;
  const std::string text = event.to_json().dump();
  for (const char* field : {"batch", "index"}) {
    const std::string needle = std::string("\"") + field + "\":" +
                               (std::string(field) == "batch" ? "3" : "1");
    for (const char* bad : kBadIntegers) {
      io::Json doc;
      std::string error;
      ASSERT_TRUE(io::Json::parse(
          replaced(text, needle, std::string("\"") + field + "\":" + bad),
          doc, error))
          << error;
      FaultEvent back;
      EXPECT_FALSE(FaultEvent::from_json(doc, back, error))
          << field << " = " << bad;
      EXPECT_NE(error.find("non-negative integers"), std::string::npos)
          << error;
    }
  }
}

TEST(FaultTest, CrashAbortLeavesConsistentPrefix) {
  const WorkloadConfig config = trace_config();
  Scenario scenario = make_tenant_scenario(config, 0);
  (void)scenario.interference();
  Rng rng(5);
  const std::vector<Mutation> batch =
      make_churn_batch(rng, scenario.node_count(), config);

  const FaultEvent event{0, FaultKind::kCrashMidBatch, batch.size() / 2};
  FaultInjector injector(event, batch.size());
  const core::BatchResult result =
      scenario.apply_batch(batch, nullptr, &injector);
  EXPECT_TRUE(injector.fired());
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_index, batch.size() / 2);
  // `applied` counts state-changing mutations only; no-ops in the prefix
  // (e.g. an add_edge that already existed) keep it below the crash index.
  EXPECT_LE(result.applied, batch.size() / 2);

  // The surviving prefix must equal a serial application of the same
  // prefix, and must satisfy every invariant (crash != corruption).
  Scenario reference = make_tenant_scenario(config, 0);
  for (std::size_t i = 0; i < event.index; ++i) {
    (void)reference.apply(batch[i]);
  }
  (void)scenario.interference();
  (void)reference.interference();
  EXPECT_EQ(scenario.snapshot().to_bytes(), reference.snapshot().to_bytes());
  const core::InvariantAuditor auditor;
  const core::AuditReport report = auditor.audit(scenario);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(FaultTest, CrashRestoreReplayEquivalenceEveryFaultPoint) {
  // The acceptance property: a ~1k-step seeded trace, and for every epoch
  // and every crash index inside it (plus poison points), snapshot-restore-
  // replay recovery lands on a state bit-identical to the clean run.
  const WorkloadConfig config = trace_config();
  const FuzzTrace trace = make_fuzz_trace(config, 1024, 0.0, 0);
  ASSERT_EQ(trace.epochs.size(), 32u);

  // Clean pass: record the pre-batch snapshot and post-batch bytes of
  // every epoch.
  std::vector<Snapshot> pre;
  std::vector<std::vector<std::uint8_t>> post;
  {
    Scenario scenario = make_tenant_scenario(config, 0);
    for (const std::vector<Mutation>& batch : trace.epochs) {
      (void)scenario.interference();
      pre.push_back(scenario.snapshot());
      (void)scenario.apply_batch(batch, nullptr);
      (void)scenario.interference();
      post.push_back(scenario.snapshot().to_bytes());
    }
  }

  Scenario worker{core::EvalOptions{}};
  std::size_t fault_points = 0;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    const std::vector<Mutation>& batch = trace.epochs[e];
    std::vector<FaultEvent> events;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      events.push_back({e, FaultKind::kCrashMidBatch, k});
    }
    for (std::size_t k = 0; k < 3; ++k) {
      events.push_back({e, FaultKind::kPoisonDiskTask, k});
      events.push_back({e, FaultKind::kPoisonRecount, k});
    }
    for (const FaultEvent& event : events) {
      std::string error;
      ASSERT_TRUE(worker.restore(pre[e], &error)) << error;
      const FaultedBatchOutcome outcome =
          apply_batch_with_faults(worker, batch, &event, nullptr, true);
      if (outcome.fault_fired) {
        EXPECT_TRUE(outcome.restored);
        ++fault_points;
      }
      (void)worker.interference();
      ASSERT_EQ(worker.snapshot().to_bytes(), post[e])
          << "epoch " << e << ", fault " << to_string(event.kind) << " @ "
          << event.index;
    }
  }
  // Every crash fires; many poisons land too.
  EXPECT_GE(fault_points, trace.epochs.size() * config.batch_size);
}

TEST(FaultTest, TraceFaultsKeepTheEngineValid) {
  // Drop/duplicate/reorder rewrite the input stream; the engine must apply
  // the adversarial batch safely and stay internally consistent.
  const WorkloadConfig config = trace_config();
  const core::InvariantAuditor auditor;
  for (const FaultKind kind :
       {FaultKind::kDropMutation, FaultKind::kDuplicateMutation,
        FaultKind::kReorderMutations}) {
    Scenario scenario = make_tenant_scenario(config, 0);
    Rng rng(23);
    for (std::size_t b = 0; b < 6; ++b) {
      const std::vector<Mutation> batch =
          make_churn_batch(rng, scenario.node_count(), config);
      const FaultEvent event{b, kind, b * 3};
      const FaultedBatchOutcome outcome =
          apply_batch_with_faults(scenario, batch, &event, nullptr, true);
      EXPECT_TRUE(outcome.fault_fired);
      EXPECT_FALSE(outcome.restored);  // trace faults are input, not crashes
    }
    const core::AuditReport report = auditor.audit(scenario);
    EXPECT_TRUE(report.ok())
        << to_string(kind) << ": " << report.violations.front();
  }
}

TEST(FaultTest, WorkloadReportsAreModeIdenticalUnderFaults) {
  WorkloadConfig config = trace_config();
  config.tenants = 3;
  config.batches = 8;
  config.fault_rate = 0.5;
  config.fault_seed = 31;

  WorkloadDriver serial(config);
  WorkloadDriver parallel_batches(config);
  WorkloadDriver concurrent(config);
  const WorkloadReport a = serial.run(ReplayMode::kSerial);
  const WorkloadReport b = parallel_batches.run(ReplayMode::kParallelBatches);
  const WorkloadReport c = concurrent.run(ReplayMode::kConcurrentTenants);

  std::size_t faults = 0;
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  ASSERT_EQ(a.tenants.size(), c.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    for (const WorkloadReport* r : {&b, &c}) {
      EXPECT_EQ(a.tenants[t].final_nodes, r->tenants[t].final_nodes);
      EXPECT_EQ(a.tenants[t].final_edges, r->tenants[t].final_edges);
      EXPECT_EQ(a.tenants[t].interference_checksum,
                r->tenants[t].interference_checksum);
      EXPECT_EQ(a.tenants[t].faults_injected, r->tenants[t].faults_injected);
      EXPECT_EQ(a.tenants[t].restores, r->tenants[t].restores);
    }
    faults += a.tenants[t].faults_injected;
  }
  EXPECT_GT(faults, 0u) << "fault_rate 0.5 never struck — plan broken?";
}

TEST(FaultTest, RecoveredEngineFaultsDoNotChangeWorkloadResults) {
  // A plan of engine faults only (crash/poison), fully recovered, must be
  // invisible in the final report. Trace faults are excluded by checking
  // against a fault-free run batch by batch.
  const WorkloadConfig config = trace_config();
  Scenario clean = make_tenant_scenario(config, 0);
  Scenario faulted = make_tenant_scenario(config, 0);
  Rng rng_clean(29), rng_faulted(29);
  for (std::size_t b = 0; b < 8; ++b) {
    const std::vector<Mutation> batch =
        make_churn_batch(rng_clean, clean.node_count(), config);
    const std::vector<Mutation> same =
        make_churn_batch(rng_faulted, faulted.node_count(), config);
    (void)clean.apply_batch(batch, nullptr);
    const FaultEvent event{
        b, b % 2 == 0 ? FaultKind::kCrashMidBatch : FaultKind::kPoisonDiskTask,
        b};
    (void)apply_batch_with_faults(faulted, same, &event, nullptr, true);
    (void)clean.interference();
    (void)faulted.interference();
    ASSERT_EQ(clean.snapshot().to_bytes(), faulted.snapshot().to_bytes())
        << "batch " << b;
  }
}

TEST(FuzzTraceTest, JsonRoundTrip) {
  WorkloadConfig config = trace_config();
  config.initial_nodes = 24;
  config.batch_size = 12;
  FuzzTrace trace = make_fuzz_trace(config, 60, 0.5, 3);
  trace.violation = "example";
  const std::string text = trace.to_json().dump();
  io::Json doc;
  std::string error;
  ASSERT_TRUE(io::Json::parse(text, doc, error)) << error;
  FuzzTrace back;
  ASSERT_TRUE(FuzzTrace::from_json(doc, back, error)) << error;
  EXPECT_EQ(back.to_json().dump(), text);
  // Replays of the two traces agree completely.
  const FuzzOutcome a = run_trace(trace);
  const FuzzOutcome b = run_trace(back);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.violation, b.violation);
}

TEST(FuzzTraceTest, DecoderRefusesNonIntegralNumbers) {
  WorkloadConfig config = trace_config();
  config.seed = 5;
  config.initial_nodes = 24;
  config.batch_size = 12;
  FuzzTrace trace = make_fuzz_trace(config, 12, 0.0, 3);
  trace.epochs = {{Mutation::add_edge(3, 4)}};
  trace.audit_every = 6;
  trace.robustness_probes = 7;
  const std::string text = trace.to_json().dump();
  {
    io::Json doc;
    std::string error;
    ASSERT_TRUE(io::Json::parse(text, doc, error)) << error;
    FuzzTrace back;
    ASSERT_TRUE(FuzzTrace::from_json(doc, back, error)) << error;
  }
  const std::vector<std::pair<std::string, std::string>> fields = {
      {"seed", "5"},        {"initial_nodes", "24"},
      {"batch_size", "12"}, {"audit_every", "6"},
      {"robustness_probes", "7"}, {"u", "3"},
      {"v", "4"}};
  for (const auto& [field, value] : fields) {
    std::vector<std::string> bad(std::begin(kBadIntegers),
                                 std::end(kBadIntegers));
    if (field == "u" || field == "v") bad.emplace_back("4294967296");
    for (const std::string& b : bad) {
      io::Json doc;
      std::string error;
      ASSERT_TRUE(io::Json::parse(replaced(text, "\"" + field + "\":" + value,
                                           "\"" + field + "\":" + b),
                                  doc, error))
          << error;
      FuzzTrace back;
      EXPECT_FALSE(FuzzTrace::from_json(doc, back, error))
          << field << " = " << b;
      EXPECT_FALSE(error.empty()) << field << " = " << b;
    }
  }
}

TEST(FuzzTraceTest, RecoveredTraceIsViolationFree) {
  WorkloadConfig config = trace_config();
  config.initial_nodes = 48;
  FuzzTrace trace = make_fuzz_trace(config, 640, 0.4, 9);
  trace.audit_every = 2;
  const FuzzOutcome outcome = run_trace(trace);
  EXPECT_TRUE(outcome.ok) << outcome.violation;
  EXPECT_GT(outcome.faults_fired, 0u);
}

TEST(FuzzTraceTest, UnrecoveredPoisonIsCaughtAndMinimized) {
  // A hand-built trace: one batch whose only mutation shrinks two real
  // disks, with the disk task poisoned and recovery off. The auditor must
  // flag it, and minimization must return a still-failing trace.
  WorkloadConfig config = trace_config();
  config.initial_nodes = 64;
  FuzzTrace trace;
  trace.config = config;
  trace.init = "pairs";  // local disks: the wave pipeline actually runs
  trace.recover = false;
  trace.audit_every = 1;
  trace.robustness_probes = 0;
  trace.epochs.push_back({Mutation::remove_edge(0, 1)});
  trace.faults.add({0, FaultKind::kPoisonDiskTask, 0});

  const FuzzOutcome outcome = run_trace(trace);
  ASSERT_FALSE(outcome.ok) << "poisoned task went unnoticed";
  EXPECT_EQ(outcome.failed_epoch, 0u);
  EXPECT_EQ(outcome.faults_fired, 1u);
  EXPECT_EQ(outcome.restores, 0u);

  const FuzzTrace minimized = minimize_trace(trace, 64);
  EXPECT_FALSE(minimized.violation.empty());
  const FuzzOutcome again = run_trace(minimized);
  EXPECT_FALSE(again.ok);
  EXPECT_LE(minimized.epochs.size(), trace.epochs.size());
}

}  // namespace
}  // namespace rim::sim
