#include "rim/sim/fault.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "rim/core/snapshot.hpp"
#include "rim/sim/rng.hpp"

namespace rim::sim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCrashMidBatch: return "crash_mid_batch";
    case FaultKind::kPoisonDiskTask: return "poison_disk_task";
    case FaultKind::kPoisonRecount: return "poison_recount";
    case FaultKind::kDropMutation: return "drop_mutation";
    case FaultKind::kDuplicateMutation: return "duplicate_mutation";
    case FaultKind::kReorderMutations: return "reorder_mutations";
  }
  return "unknown";
}

bool fault_kind_from_string(const std::string& name, FaultKind& kind) {
  for (const FaultKind k :
       {FaultKind::kNone, FaultKind::kCrashMidBatch,
        FaultKind::kPoisonDiskTask, FaultKind::kPoisonRecount,
        FaultKind::kDropMutation, FaultKind::kDuplicateMutation,
        FaultKind::kReorderMutations}) {
    if (name == to_string(k)) {
      kind = k;
      return true;
    }
  }
  return false;
}

io::Json FaultEvent::to_json() const {
  io::JsonObject o;
  o["batch"] = io::Json(batch);
  o["kind"] = io::Json(to_string(kind));
  o["index"] = io::Json(index);
  return io::Json(std::move(o));
}

bool FaultEvent::from_json(const io::Json& json, FaultEvent& out,
                           std::string& error) {
  out = FaultEvent{};
  const io::Json* batch = json.find("batch");
  const io::Json* kind = json.find("kind");
  const io::Json* index = json.find("index");
  if (batch == nullptr || !batch->is_number() || kind == nullptr ||
      kind->as_string() == nullptr || index == nullptr ||
      !index->is_number()) {
    error = "fault event: missing batch/kind/index";
    return false;
  }
  if (!fault_kind_from_string(*kind->as_string(), out.kind)) {
    error = "fault event: unknown kind '" + *kind->as_string() + "'";
    return false;
  }
  out.batch = static_cast<std::size_t>(batch->as_number());
  out.index = static_cast<std::size_t>(index->as_number());
  return true;
}

FaultPlan FaultPlan::generate(std::uint64_t seed, std::size_t batches,
                              double rate) {
  FaultPlan plan;
  if (rate <= 0.0) return plan;
  Rng rng(seed);
  for (std::size_t b = 0; b < batches; ++b) {
    if (rng.next_double() >= rate) continue;
    FaultEvent event;
    event.batch = b;
    // 1..6 maps onto the concrete kinds (kNone excluded).
    event.kind = static_cast<FaultKind>(1 + rng.next_below(6));
    // Small raw indices keep poison faults likely to land inside the task
    // list; crash/trace faults wrap at use time regardless.
    event.index = static_cast<std::size_t>(rng.next_below(8));
    plan.add(event);
  }
  return plan;
}

const FaultEvent* FaultPlan::find(std::size_t batch) const {
  for (const FaultEvent& event : events_) {
    if (event.batch == batch) return &event;
  }
  return nullptr;
}

io::Json FaultPlan::to_json() const {
  io::JsonArray rows;
  rows.reserve(events_.size());
  for (const FaultEvent& event : events_) rows.push_back(event.to_json());
  return io::Json(std::move(rows));
}

bool FaultPlan::from_json(const io::Json& json, FaultPlan& out,
                          std::string& error) {
  out = FaultPlan{};
  const io::JsonArray* rows = json.as_array();
  if (rows == nullptr) {
    error = "fault plan: expected an array";
    return false;
  }
  for (const io::Json& row : *rows) {
    FaultEvent event;
    if (!FaultEvent::from_json(row, event, error)) return false;
    out.add(event);
  }
  return true;
}

FaultInjector::FaultInjector(const FaultEvent& event, std::size_t batch_size)
    : event_(event),
      crash_index_(batch_size > 0 ? event.index % batch_size : 0) {}

bool FaultInjector::before_mutation(std::size_t index) {
  if (event_.kind == FaultKind::kCrashMidBatch && index == crash_index_) {
    fired_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool FaultInjector::before_disk_task(std::size_t wave, std::size_t task) {
  (void)wave;
  if (event_.kind == FaultKind::kPoisonDiskTask && task == event_.index) {
    fired_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool FaultInjector::before_recount(std::size_t index) {
  if (event_.kind == FaultKind::kPoisonRecount && index == event_.index) {
    fired_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::vector<core::Mutation> apply_trace_faults(
    std::vector<core::Mutation> batch, const FaultEvent& event) {
  if (batch.empty()) return batch;
  const std::size_t i = event.index % batch.size();
  switch (event.kind) {
    case FaultKind::kDropMutation:
      batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case FaultKind::kDuplicateMutation:
      batch.insert(batch.begin() + static_cast<std::ptrdiff_t>(i), batch[i]);
      break;
    case FaultKind::kReorderMutations:
      if (batch.size() >= 2) {
        const std::size_t j = (i + 1) % batch.size();
        std::swap(batch[i], batch[j]);
      }
      break;
    default:
      break;
  }
  return batch;
}

FaultedBatchOutcome apply_batch_with_faults(
    core::Scenario& scenario, std::span<const core::Mutation> batch,
    const FaultEvent* event, parallel::ThreadPool* pool, bool recover) {
  FaultedBatchOutcome outcome;
  if (event == nullptr || event->kind == FaultKind::kNone) {
    outcome.result = scenario.apply_batch(batch, pool);
    return outcome;
  }
  if (!is_engine_fault(event->kind)) {
    const std::vector<core::Mutation> rewritten = apply_trace_faults(
        std::vector<core::Mutation>(batch.begin(), batch.end()), *event);
    outcome.result = scenario.apply_batch(rewritten, pool);
    outcome.fault_fired = true;
    return outcome;
  }
  if (!recover) {
    FaultInjector injector(*event, batch.size());
    outcome.result = scenario.apply_batch(batch, pool, &injector);
    outcome.fault_fired = injector.fired();
    return outcome;
  }
  // Crash-restore-replay: capture state, apply under injection, and when
  // the fault struck, roll back and replay clean. The snapshot restores
  // everything the engine owns, so the replayed end state is bit-identical
  // to an uninjected application of the same batch.
  const core::Snapshot checkpoint = scenario.snapshot();
  FaultInjector injector(*event, batch.size());
  outcome.result = scenario.apply_batch(batch, pool, &injector);
  if (injector.fired()) {
    outcome.fault_fired = true;
    std::string error;
    const bool restored = scenario.restore(checkpoint, &error);
    // The checkpoint came from snapshot() moments ago; failure to restore
    // it would be an engine bug, not an input error.
    assert(restored);
    (void)restored;
    outcome.restored = true;
    outcome.result = scenario.apply_batch(batch, pool);
  }
  return outcome;
}

}  // namespace rim::sim
