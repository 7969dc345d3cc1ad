#include "rim/sim/trace.hpp"

#include <algorithm>
#include <utility>

#include "rim/core/audit.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/parallel/thread_pool.hpp"
#include "rim/sim/rng.hpp"

namespace rim::sim {

namespace {

const char* mutation_kind_name(core::Mutation::Kind kind) {
  switch (kind) {
    case core::Mutation::Kind::kAddNode: return "add_node";
    case core::Mutation::Kind::kRemoveNode: return "remove_node";
    case core::Mutation::Kind::kAddEdge: return "add_edge";
    case core::Mutation::Kind::kRemoveEdge: return "remove_edge";
    case core::Mutation::Kind::kMoveNode: return "move_node";
  }
  return "unknown";
}

bool mutation_kind_from_name(const std::string& name,
                             core::Mutation::Kind& kind) {
  for (const core::Mutation::Kind k :
       {core::Mutation::Kind::kAddNode, core::Mutation::Kind::kRemoveNode,
        core::Mutation::Kind::kAddEdge, core::Mutation::Kind::kRemoveEdge,
        core::Mutation::Kind::kMoveNode}) {
    if (name == mutation_kind_name(k)) {
      kind = k;
      return true;
    }
  }
  return false;
}

}  // namespace

io::Json mutation_to_json(const core::Mutation& mutation) {
  io::JsonObject o;
  o["kind"] = io::Json(mutation_kind_name(mutation.kind));
  o["u"] = io::Json(mutation.u);
  o["v"] = io::Json(mutation.v);
  o["pos_bits"] = io::Json(core::double_to_hex_bits(mutation.position.x) +
                           core::double_to_hex_bits(mutation.position.y));
  return io::Json(std::move(o));
}

bool mutation_from_json(const io::Json& json, core::Mutation& out,
                        std::string& error) {
  out = core::Mutation{};
  const io::Json* kind = json.find("kind");
  const io::Json* u = json.find("u");
  const io::Json* v = json.find("v");
  const io::Json* pos = json.find("pos_bits");
  if (kind == nullptr || kind->as_string() == nullptr || u == nullptr ||
      !u->is_number() || v == nullptr || !v->is_number() || pos == nullptr ||
      pos->as_string() == nullptr) {
    error = "mutation: missing kind/u/v/pos_bits";
    return false;
  }
  if (!mutation_kind_from_name(*kind->as_string(), out.kind)) {
    error = "mutation: unknown kind '" + *kind->as_string() + "'";
    return false;
  }
  const std::string& bits = *pos->as_string();
  if (bits.size() != 32 ||
      !core::double_from_hex_bits(bits.substr(0, 16), out.position.x) ||
      !core::double_from_hex_bits(bits.substr(16, 16), out.position.y)) {
    error = "mutation: malformed pos_bits";
    return false;
  }
  if (!io::json_to_uint(*u, out.u) || !io::json_to_uint(*v, out.v)) {
    error = "mutation: u/v must be integers in [0, 2^32 - 1]";
    return false;
  }
  return true;
}

io::Json FuzzTrace::to_json() const {
  io::JsonObject o;
  o["format"] = io::Json("rim-fuzz-trace");
  o["version"] = io::Json(1);
  o["init"] = io::Json(init);
  {
    io::JsonObject cfg;
    cfg["seed"] = io::Json(config.seed);
    cfg["initial_nodes"] = io::Json(config.initial_nodes);
    cfg["batch_size"] = io::Json(config.batch_size);
    cfg["side_bits"] = io::Json(core::double_to_hex_bits(config.side));
    o["config"] = io::Json(std::move(cfg));
  }
  o["recover"] = io::Json(recover);
  o["audit_every"] = io::Json(audit_every);
  o["robustness_probes"] = io::Json(robustness_probes);
  {
    io::JsonArray epoch_rows;
    epoch_rows.reserve(epochs.size());
    for (const std::vector<core::Mutation>& epoch : epochs) {
      io::JsonArray row;
      row.reserve(epoch.size());
      for (const core::Mutation& m : epoch) row.push_back(mutation_to_json(m));
      epoch_rows.emplace_back(std::move(row));
    }
    o["epochs"] = io::Json(std::move(epoch_rows));
  }
  o["faults"] = faults.to_json();
  o["violation"] = io::Json(violation);
  return io::Json(std::move(o));
}

bool FuzzTrace::from_json(const io::Json& json, FuzzTrace& out,
                          std::string& error) {
  out = FuzzTrace{};
  const io::Json* format = json.find("format");
  if (format == nullptr || format->as_string() == nullptr ||
      *format->as_string() != "rim-fuzz-trace") {
    error = "not a rim-fuzz-trace document";
    return false;
  }
  const io::Json* cfg = json.find("config");
  if (cfg == nullptr || !cfg->is_object()) {
    error = "fuzz trace: missing config";
    return false;
  }
  const io::Json* seed = cfg->find("seed");
  const io::Json* initial = cfg->find("initial_nodes");
  const io::Json* batch_size = cfg->find("batch_size");
  const io::Json* side = cfg->find("side_bits");
  if (seed == nullptr || !seed->is_number() || initial == nullptr ||
      !initial->is_number() || batch_size == nullptr ||
      !batch_size->is_number() || side == nullptr ||
      side->as_string() == nullptr ||
      !core::double_from_hex_bits(*side->as_string(), out.config.side)) {
    error = "fuzz trace: malformed config";
    return false;
  }
  if (!io::json_to_uint(*seed, out.config.seed) ||
      !io::json_to_uint(*initial, out.config.initial_nodes) ||
      !io::json_to_uint(*batch_size, out.config.batch_size)) {
    error = "fuzz trace: seed/initial_nodes/batch_size must be non-negative "
            "integers";
    return false;
  }
  const io::Json* init = json.find("init");
  if (init != nullptr && init->as_string() != nullptr) {
    out.init = *init->as_string();
  }
  if (out.init != "tenant" && out.init != "pairs") {
    error = "fuzz trace: unknown init '" + out.init + "'";
    return false;
  }
  const io::Json* recover = json.find("recover");
  if (recover != nullptr && recover->is_bool()) {
    out.recover = recover->as_bool();
  }
  const io::Json* audit_every = json.find("audit_every");
  if (audit_every != nullptr && audit_every->is_number() &&
      !io::json_to_uint(*audit_every, out.audit_every)) {
    error = "fuzz trace: audit_every must be a non-negative integer";
    return false;
  }
  const io::Json* probes = json.find("robustness_probes");
  if (probes != nullptr && probes->is_number() &&
      !io::json_to_uint(*probes, out.robustness_probes)) {
    error = "fuzz trace: robustness_probes must be a non-negative integer";
    return false;
  }
  const io::Json* epochs = json.find("epochs");
  if (epochs == nullptr || !epochs->is_array()) {
    error = "fuzz trace: missing epochs";
    return false;
  }
  out.epochs.reserve(epochs->as_array()->size());
  for (const io::Json& row : *epochs->as_array()) {
    if (!row.is_array()) {
      error = "fuzz trace: malformed epoch";
      return false;
    }
    std::vector<core::Mutation> epoch;
    epoch.reserve(row.as_array()->size());
    for (const io::Json& entry : *row.as_array()) {
      core::Mutation mutation;
      if (!mutation_from_json(entry, mutation, error)) return false;
      epoch.push_back(mutation);
    }
    out.epochs.push_back(std::move(epoch));
  }
  const io::Json* faults = json.find("faults");
  if (faults != nullptr && !faults->is_null()) {
    if (!FaultPlan::from_json(*faults, out.faults, error)) return false;
  }
  const io::Json* violation = json.find("violation");
  if (violation != nullptr && violation->as_string() != nullptr) {
    out.violation = *violation->as_string();
  }
  return true;
}

io::Json FuzzOutcome::to_json() const {
  io::JsonObject o;
  o["ok"] = io::Json(ok);
  o["failed_epoch"] = io::Json(failed_epoch);
  o["violation"] = io::Json(violation);
  o["faults_fired"] = io::Json(faults_fired);
  o["restores"] = io::Json(restores);
  return io::Json(std::move(o));
}

FuzzTrace make_fuzz_trace(const WorkloadConfig& config, std::size_t steps,
                          double fault_rate, std::uint64_t fault_seed) {
  FuzzTrace trace;
  trace.config = config;
  const std::size_t batch_size = std::max<std::size_t>(config.batch_size, 1);
  const std::size_t epochs = (steps + batch_size - 1) / batch_size;
  Rng rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
  std::size_t nodes = std::max<std::size_t>(config.initial_nodes, 2);
  trace.epochs.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    std::vector<core::Mutation> batch =
        make_churn_batch(rng, nodes, config);
    // Track the node count the way serial application would: every listed
    // removal targets a then-valid id and every arrival lands, so the
    // predicted count matches the replayed scenario exactly (under faults
    // it may drift, which is the adversarial point — apply() skips ids
    // that have become invalid).
    for (const core::Mutation& m : batch) {
      if (m.kind == core::Mutation::Kind::kAddNode) {
        ++nodes;
      } else if (m.kind == core::Mutation::Kind::kRemoveNode && nodes > 0) {
        --nodes;
      }
    }
    trace.epochs.push_back(std::move(batch));
  }
  trace.faults = FaultPlan::generate(fault_seed, epochs, fault_rate);
  return trace;
}

core::Scenario make_pairs_scenario(const WorkloadConfig& config) {
  const std::size_t n = std::max<std::size_t>(config.initial_nodes, 2);
  geom::PointSet points(n);
  graph::Graph topology(n);
  for (std::size_t i = 0; 2 * i < n; ++i) {
    const double x = 3.0 * static_cast<double>(i);
    points[2 * i] = {x, 0.0};
    if (2 * i + 1 < n) {
      points[2 * i + 1] = {x + 1.0, 0.0};
      topology.add_edge(static_cast<NodeId>(2 * i),
                        static_cast<NodeId>(2 * i + 1));
    }
  }
  return core::Scenario(points, topology, config.eval);
}

FuzzOutcome run_trace(const FuzzTrace& trace) {
  FuzzOutcome outcome;
  core::Scenario scenario = trace.init == "pairs"
                                ? make_pairs_scenario(trace.config)
                                : make_tenant_scenario(trace.config, 0);
  const core::InvariantAuditor auditor;
  Rng probe_rng(trace.config.seed ^ 0xC0FFEE5EEDF00D42ULL);
  parallel::ThreadPool* pool = &parallel::ThreadPool::shared();
  const std::size_t cadence = std::max<std::size_t>(trace.audit_every, 1);
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    // Warm the cache so the batch takes the coalesce/wave path whenever its
    // regions are small enough (a cold cache would force the deferred path,
    // where poison faults have no task to strike).
    (void)scenario.interference();
    const FaultEvent* event = trace.faults.find(e);
    const FaultedBatchOutcome applied = apply_batch_with_faults(
        scenario, trace.epochs[e], event, pool, trace.recover);
    if (applied.fault_fired) ++outcome.faults_fired;
    if (applied.restored) ++outcome.restores;
    const bool last = e + 1 == trace.epochs.size();
    if ((e + 1) % cadence != 0 && !last) continue;
    core::AuditReport report = auditor.audit(scenario);
    if (report.ok() && trace.robustness_probes > 0) {
      std::vector<geom::Vec2> probes(trace.robustness_probes);
      for (geom::Vec2& p : probes) {
        p = {probe_rng.uniform(0.0, trace.config.side),
             probe_rng.uniform(0.0, trace.config.side)};
      }
      const core::AuditReport robustness =
          auditor.audit_robustness(scenario, probes);
      report.checks += robustness.checks;
      report.violations.insert(report.violations.end(),
                               robustness.violations.begin(),
                               robustness.violations.end());
    }
    if (!report.ok()) {
      outcome.ok = false;
      outcome.failed_epoch = e;
      outcome.violation = report.violations.front();
      return outcome;
    }
  }
  return outcome;
}

FuzzTrace minimize_trace(FuzzTrace trace, std::size_t max_runs) {
  std::size_t runs = 0;
  const auto fails = [&](const FuzzTrace& candidate,
                         std::string& violation) {
    if (runs >= max_runs) return false;
    ++runs;
    const FuzzOutcome outcome = run_trace(candidate);
    if (!outcome.ok) violation = outcome.violation;
    return !outcome.ok;
  };

  std::string violation;
  if (!fails(trace, violation)) return trace;  // not failing: nothing to do
  trace.violation = violation;

  // Pass 1: drop whole epochs, last to first (later epochs usually only
  // pad; faults on removed epochs go with them, later ones shift down).
  for (std::size_t e = trace.epochs.size(); e-- > 0;) {
    if (runs >= max_runs) break;
    FuzzTrace candidate = trace;
    candidate.epochs.erase(candidate.epochs.begin() +
                           static_cast<std::ptrdiff_t>(e));
    FaultPlan remapped;
    for (const FaultEvent& event : candidate.faults.events()) {
      if (event.batch == e) continue;
      FaultEvent shifted = event;
      if (shifted.batch > e) --shifted.batch;
      remapped.add(shifted);
    }
    candidate.faults = std::move(remapped);
    if (fails(candidate, violation)) {
      trace = std::move(candidate);
      trace.violation = violation;
    }
  }

  // Pass 2: drop single mutations.
  for (std::size_t e = trace.epochs.size(); e-- > 0;) {
    for (std::size_t m = trace.epochs[e].size(); m-- > 0;) {
      if (runs >= max_runs) return trace;
      FuzzTrace candidate = trace;
      candidate.epochs[e].erase(candidate.epochs[e].begin() +
                                static_cast<std::ptrdiff_t>(m));
      if (fails(candidate, violation)) {
        trace = std::move(candidate);
        trace.violation = violation;
      }
    }
  }
  return trace;
}

}  // namespace rim::sim
