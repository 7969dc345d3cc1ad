#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rim/core/scenario.hpp"
#include "rim/io/json.hpp"

/// \file fault.hpp
/// Deterministic, seeded fault injection for the batch pipeline.
///
/// A FaultPlan is a pure function of (seed, batches, rate): a sparse
/// schedule of FaultEvents, each striking one batch of a replay. Two fault
/// families exist:
///
///  - engine faults, delivered through core::BatchHooks on the real
///    apply_batch call: kCrashMidBatch aborts the structural pass at a
///    mutation index (the pipeline invalidates its cache, so the surviving
///    prefix stays queryable), and kPoisonDiskTask / kPoisonRecount
///    silently drop one wave task, deliberately corrupting the
///    interference cache — the InvariantAuditor's reason to exist.
///  - trace faults, applied to a copy of the batch before it reaches the
///    engine: kDropMutation, kDuplicateMutation, kReorderMutations. These
///    produce a *different but valid* mutation sequence (adversarial input,
///    possibly with out-of-range ids that apply() must skip safely).
///
/// apply_batch_with_faults is the one recovery kernel shared by
/// WorkloadDriver and sim::run_trace: snapshot, apply under injection, and
/// when an engine fault fired, restore + replay clean — after which the end
/// state is bit-identical to the uninjected run (the crash-restore-replay
/// equivalence that tests/fault_test.cpp checks exhaustively).

namespace rim::parallel {
class ThreadPool;
}

namespace rim::sim {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCrashMidBatch,      ///< abort the structural pass at `index`
  kPoisonDiskTask,     ///< silently skip coalesced disk task `index`
  kPoisonRecount,      ///< silently skip recount task `index`
  kDropMutation,       ///< delete batch[index] before applying
  kDuplicateMutation,  ///< apply batch[index] twice
  kReorderMutations,   ///< swap batch[index] and batch[index+1]
};

[[nodiscard]] const char* to_string(FaultKind kind);
[[nodiscard]] bool fault_kind_from_string(const std::string& name,
                                          FaultKind& kind);

struct FaultEvent {
  std::size_t batch = 0;  ///< which batch of the replay the fault strikes
  FaultKind kind = FaultKind::kNone;
  /// Mutation/task ordinal the fault targets. Crash and trace faults wrap
  /// it modulo the batch size, so they always fire; poison faults use it
  /// raw (a poison aimed past the task list fizzles — still deterministic).
  std::size_t index = 0;

  [[nodiscard]] io::Json to_json() const;
  [[nodiscard]] static bool from_json(const io::Json& json, FaultEvent& out,
                                      std::string& error);
};

/// Seeded sparse fault schedule over a replay of `batches` batches.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Pure function of the arguments: roughly rate * batches events, at most
  /// one per batch, kinds and indices drawn from the seeded stream.
  [[nodiscard]] static FaultPlan generate(std::uint64_t seed,
                                          std::size_t batches, double rate);

  void add(FaultEvent event) { events_.push_back(event); }

  /// The event striking \p batch, or nullptr.
  [[nodiscard]] const FaultEvent* find(std::size_t batch) const;

  [[nodiscard]] std::span<const FaultEvent> events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  [[nodiscard]] io::Json to_json() const;
  [[nodiscard]] static bool from_json(const io::Json& json, FaultPlan& out,
                                      std::string& error);

 private:
  std::vector<FaultEvent> events_;
};

/// BatchHooks implementation delivering one engine FaultEvent into a single
/// apply_batch call. Decisions are pure functions of the (immutable) event,
/// so concurrent wave workers may consult them freely; `fired` is a relaxed
/// atomic flag. This is the reference implementation of the §8 lock-free
/// hook contract (core::BatchHooks): no mutex, no RIM_GUARDED_BY state —
/// only immutable members plus one atomic.
class FaultInjector final : public core::BatchHooks {
 public:
  /// \p batch_size wraps a crash index so it always lands inside the batch.
  FaultInjector(const FaultEvent& event, std::size_t batch_size);

  bool before_mutation(std::size_t index) override;
  bool before_disk_task(std::size_t wave, std::size_t task) override;
  bool before_recount(std::size_t index) override;

  /// Whether the fault actually struck (a poison aimed past the task list
  /// never fires; no recovery is needed then).
  [[nodiscard]] bool fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

 private:
  FaultEvent event_;
  std::size_t crash_index_ = 0;
  std::atomic<bool> fired_{false};
};

/// What apply_batch_with_faults did.
struct FaultedBatchOutcome {
  core::BatchResult result;
  bool fault_fired = false;  ///< an engine fault struck this batch
  bool restored = false;     ///< snapshot-restore-replay recovery ran
};

/// Apply \p batch to \p scenario under an optional fault event. Trace
/// faults rewrite a copy of the batch; engine faults run through
/// FaultInjector with, when \p recover is set, snapshot-before /
/// restore-and-replay-after recovery (the end state is then bit-identical
/// to the uninjected application). With \p recover false, engine faults
/// leave the crash or corruption in place for the auditor to find.
FaultedBatchOutcome apply_batch_with_faults(core::Scenario& scenario,
                                            std::span<const core::Mutation> batch,
                                            const FaultEvent* event,
                                            parallel::ThreadPool* pool,
                                            bool recover);

}  // namespace rim::sim
