#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rim/common/arena.hpp"
#include "rim/core/interference.hpp"
#include "rim/geom/dynamic_grid.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"
#include "rim/io/json.hpp"
#include "rim/obs/metrics.hpp"

/// \file scenario.hpp
/// The incremental interference engine: a stateful network scenario.
///
/// Every stateless evaluation of Definition 3.1/3.2 costs at least one pass
/// over the whole instance. The paper's own robustness result (Section 1,
/// Figure 1) guarantees the opposite locality: one arriving node perturbs
/// any I(v) by at most 1, because all it adds is its own disk (plus its
/// attachment partner's enlarged disk). Scenario exploits exactly that:
/// it owns the points, the topology, the cached per-node radii and
/// interference vector, and a persistent mutable spatial index
/// (geom::DynamicGrid), and re-evaluates only the O(affected-disk) region
/// around each mutation:
///
///  - add_edge/remove_edge: the endpoint radii change; nodes entering or
///    leaving the two disks gain/lose one unit of interference.
///  - add_node: the newcomer transmits nothing yet; only its own I(v) is
///    counted (one coverage query).
///  - remove_node: the node's disk and its neighbors' shrinking disks are
///    retired, then the id of the last node is swapped into the vacated
///    slot (dense ids, O(degree)).
///  - move_node: the node's disk is retired at the old position and
///    re-applied at the new one; neighbor radii and its own coverage are
///    re-derived locally.
///
/// Mutations are reified as core::Mutation values, and apply_batch() is
/// the one executor: a point op (add_node, apply, ...) is a batch of one.
/// One structural pass coalesces per-node disk changes, the surviving
/// region deltas are grouped by grid-region conflict (disjoint
/// affected-disk regions run concurrently on parallel::ThreadPool,
/// conflicting ones serialize deterministically in task order), and the
/// result is bit-identical to applying the same mutations one at a time.
/// The robustness property is what makes this sound: each delta is a
/// commuting integer +-1 over its own disk region.
///
/// When the grid-occupancy estimate says a batch would touch more than
/// EvalOptions::touched_threshold nodes in one task, or more than n in
/// total, the engine marks the cache dirty instead and the next query
/// performs one full evaluation through interference_vector_squared, the
/// stateless evaluator, so adversarial giant disks degrade to the
/// stateless cost, never worse.
///
/// Counters for full vs. incremental evaluations, batch pipeline activity,
/// nodes/cells touched, and nanoseconds per phase are kept in ScenarioStats
/// (obs::Counter/obs::Histogram), dumpable via io::Json.

namespace rim::parallel {
class ThreadPool;
}

namespace rim::core {

struct Snapshot;  // snapshot.hpp — full-state serialization of a Scenario

/// One reified network mutation — the unit of apply(), apply_batch(), and
/// assess(). Node ids refer to the id space at the moment the mutation is
/// applied (batch semantics are identical to applying the batch serially,
/// including swap-with-last renames from earlier removals in the batch).
struct Mutation {
  enum class Kind : std::uint8_t {
    kAddNode,     ///< append an isolated node at `position`
    kRemoveNode,  ///< remove node `v` and its incident edges
    kAddEdge,     ///< add the undirected edge {u, v}
    kRemoveEdge,  ///< remove the undirected edge {u, v}
    kMoveNode,    ///< move node `v` to `position`
  };

  Kind kind = Kind::kAddNode;
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  geom::Vec2 position{};

  [[nodiscard]] static Mutation add_node(geom::Vec2 p) {
    return {Kind::kAddNode, kInvalidNode, kInvalidNode, p};
  }
  [[nodiscard]] static Mutation remove_node(NodeId v) {
    return {Kind::kRemoveNode, kInvalidNode, v, {}};
  }
  [[nodiscard]] static Mutation add_edge(NodeId u, NodeId v) {
    return {Kind::kAddEdge, u, v, {}};
  }
  [[nodiscard]] static Mutation remove_edge(NodeId u, NodeId v) {
    return {Kind::kRemoveEdge, u, v, {}};
  }
  [[nodiscard]] static Mutation move_node(NodeId v, geom::Vec2 p) {
    return {Kind::kMoveNode, kInvalidNode, v, p};
  }
};

/// What one apply_batch() call did.
struct BatchResult {
  std::size_t applied = 0;     ///< mutations that changed state
  std::size_t disk_tasks = 0;  ///< coalesced region deltas executed
  std::size_t recounts = 0;    ///< receiver coverage recounts executed
  std::size_t waves = 0;       ///< conflict-free parallel waves run
  bool deferred = false;       ///< fell back to a full evaluation instead
  bool aborted = false;        ///< hooks aborted the structural pass
  /// Index of the first mutation NOT applied when aborted (the crash
  /// point); batch.size() otherwise.
  std::size_t abort_index = 0;
};

/// Fault-injection/test hooks consulted by apply_batch (sim::FaultInjector
/// is the production implementation). Default implementations are no-ops,
/// so subclasses override only the fault points they model. before_*
/// callbacks on the wave/recount phases run on thread-pool workers:
/// implementations must be thread-safe and decide from immutable state —
/// per the §8 contract, "thread-safe" here means lock-free (immutable
/// members plus relaxed atomics, as FaultInjector does); taking a
/// common::Mutex inside a hook would serialize the waves it observes.
class BatchHooks {
 public:
  virtual ~BatchHooks() = default;
  /// Before batch[index] is structurally applied. Returning false aborts
  /// the batch at this point — a simulated crash: the already-applied
  /// prefix remains, the evaluation cache is invalidated (so queries stay
  /// correct), and BatchResult::aborted is set. Recovery is the caller's
  /// job (Scenario::restore + replay).
  virtual bool before_mutation(std::size_t index) {
    (void)index;
    return true;
  }
  /// Before disk task \p task (its index in the coalesced task list) of
  /// wave \p wave runs. Returning false silently skips the task — a
  /// poisoned wave task that corrupts the interference cache. The
  /// InvariantAuditor exists to catch exactly this.
  virtual bool before_disk_task(std::size_t wave, std::size_t task) {
    (void)wave;
    (void)task;
    return true;
  }
  /// Before the recount of recount-task \p index runs; false skips it
  /// (same corruption model as before_disk_task).
  virtual bool before_recount(std::size_t index) {
    (void)index;
    return true;
  }
};

/// Impact of a (sequence of) mutation(s), measured by core::Assessor
/// without disturbing the scenario. All per-node data is indexed by the
/// *pre-mutation* id space; renames from removals are resolved internally.
struct Assessment {
  /// I_after - I_before per pre-existing node; a removed node's entry is
  /// -I_before (its slot disappeared).
  std::vector<std::int64_t> delta_per_node;
  /// Pre-mutation ids with a non-zero delta, ascending.
  std::vector<NodeId> affected_ids;
  std::uint32_t max_before = 0;  ///< I(G') before
  std::uint32_t max_after = 0;   ///< I(G') after
  /// When the sequence net-added nodes: I(v) of the newest node after the
  /// sequence (the paper's "newcomer interference"); 0 otherwise.
  std::uint32_t newcomer_interference = 0;
};

/// Observability counters of the engine (obs layer; all monotone, relaxed
/// atomics — batch tasks on the thread pool record concurrently).
struct ScenarioStats {
  obs::Counter incremental_updates;  ///< mutations applied as local deltas
  obs::Counter deferred_mutations;   ///< batches too large: cache invalidated
  obs::Counter full_evaluations;     ///< batched full recomputes
  obs::Counter nodes_touched;        ///< candidates visited by delta queries
  obs::Counter cells_touched;        ///< grid cells visited by delta queries
  obs::Counter full_ns;              ///< time spent in full recomputes

  // Batch pipeline (apply_batch; a point op counts as a batch of one).
  obs::Counter batches;           ///< apply_batch calls
  obs::Counter batch_mutations;   ///< mutations applied through batches
  obs::Counter batch_disk_tasks;  ///< coalesced region deltas executed
  obs::Counter batch_recounts;    ///< receiver recounts executed
  obs::Counter batch_waves;       ///< conflict-free waves dispatched
  obs::Counter batch_deferred;    ///< batches that fell back to full eval
  obs::Counter batch_ns;          ///< time spent inside apply_batch
  obs::Histogram batch_wave_tasks;  ///< tasks per wave distribution

  // Robustness subsystem (snapshot/restore + fault injection).
  obs::Counter snapshots;        ///< Scenario::snapshot() calls
  obs::Counter restores;         ///< successful Scenario::restore() calls
  obs::Counter batch_aborts;     ///< batches aborted by hooks (crash faults)
  obs::Counter hook_skipped_tasks;  ///< disk/recount tasks vetoed by hooks

  /// Machine-readable dump (io::Json) for experiment harnesses.
  [[nodiscard]] io::Json to_json() const;
};

/// Stateful interference engine over an evolving network. Node ids are kept
/// dense (0..n-1): remove_node moves the last id into the vacated slot and
/// reports the rename. All queries return exactly what a from-scratch
/// evaluation of the current topology would — the property tests assert
/// bit-identical agreement with Strategy::kBrute under randomized mutation
/// sequences and randomized batches.
class Scenario {
 public:
  /// An empty scenario; \p options configures strategy resolution and the
  /// incremental/batch thresholds (EvalOptions is the one shared surface).
  explicit Scenario(EvalOptions options);
  explicit Scenario(Strategy full_strategy = Strategy::kAuto)
      : Scenario(EvalOptions{}.with_strategy(full_strategy)) {}

  /// Adopt an existing instance. \p topology.node_count() must equal
  /// \p points.size(). The evaluation cache starts cold; the first query
  /// performs one full evaluation.
  Scenario(std::span<const geom::Vec2> points, const graph::Graph& topology,
           EvalOptions options);
  Scenario(std::span<const geom::Vec2> points, const graph::Graph& topology,
           Strategy full_strategy = Strategy::kAuto)
      : Scenario(points, topology, EvalOptions{}.with_strategy(full_strategy)) {}

  /// Copies duplicate the engine state (probe copies for assessment) but
  /// not the batch scratch arena — each Scenario owns a fresh one.
  Scenario(const Scenario& other);
  Scenario& operator=(const Scenario& other);
  Scenario(Scenario&&) noexcept = default;
  Scenario& operator=(Scenario&&) noexcept = default;

  // --- mutations ---------------------------------------------------------
  // Point ops are one-element batches (apply_batch without a pool).
  // Mutations with out-of-range ids are skipped rather than asserting, so
  // recorded traces replay safely.

  /// Append an isolated node at \p position, returning its id. The newcomer
  /// transmits nothing until an edge attaches it (radius 0), so existing
  /// interference values are untouched — the paper's robustness argument.
  NodeId add_node(geom::Vec2 position) {
    return apply(Mutation::add_node(position));
  }

  /// Remove node \p v and its incident edges. To keep ids dense, the
  /// current last node is renamed to \p v; returns that node's former id
  /// (or kInvalidNode when \p v was the last node already).
  NodeId remove_node(NodeId v) { return apply(Mutation::remove_node(v)); }

  /// Add the undirected edge {u, v}; returns false (no change) if it
  /// already exists or u == v. Endpoint radii only ever grow.
  bool add_edge(NodeId u, NodeId v) {
    return apply_one(Mutation::add_edge(u, v));
  }

  /// Remove the edge {u, v} if present; endpoint radii shrink to the new
  /// farthest neighbor. Returns whether the edge existed.
  bool remove_edge(NodeId u, NodeId v) {
    return apply_one(Mutation::remove_edge(u, v));
  }

  /// Move node \p v to \p position: its disk is re-applied there, neighbor
  /// radii are re-derived, and its own coverage is recounted. Moving a node
  /// to its current position changes nothing (no cache invalidation, no
  /// applied mutation).
  void move_node(NodeId v, geom::Vec2 position) {
    apply_one(Mutation::move_node(v, position));
  }

  /// Apply one reified mutation. Returns the new node's id for kAddNode,
  /// the renamed id for kRemoveNode (as remove_node), kInvalidNode
  /// otherwise.
  NodeId apply(const Mutation& mutation);

  /// Apply a whole mutation batch, semantically identical to applying its
  /// elements one at a time, but pipelined: one serial structural
  /// pass coalesces all radius/position changes per node, then the
  /// surviving disk deltas are grouped into conflict-free waves (disjoint
  /// affected regions, by bounding-box test; conflicting deltas land in
  /// later waves in task order). The waves run on \p pool when it
  /// has more than one worker and inline otherwise (nullptr included); the
  /// schedule, the BatchResult, and the resulting state are the same either
  /// way. Falls back to one deferred full evaluation when the batch's region
  /// estimate exceeds the EvalOptions thresholds. Results are bit-identical
  /// to the kBrute oracle either way.
  /// \p hooks, when non-null, is consulted at every fault point
  /// (BatchHooks); production callers pass nullptr.
  BatchResult apply_batch(std::span<const Mutation> batch,
                          parallel::ThreadPool* pool,
                          BatchHooks* hooks = nullptr);
  /// Overload using the process-wide shared pool.
  BatchResult apply_batch(std::span<const Mutation> batch);

  // --- snapshot / restore -------------------------------------------------

  /// Capture full engine state (points, adjacency in list order, radii,
  /// interference cache when valid, grid configuration, options) as a
  /// core::Snapshot. Restoring it — in this or any other Scenario — yields
  /// an engine observationally indistinguishable from this one: identical
  /// query answers, identical behavior under subsequent mutations, and a
  /// bit-identical re-snapshot.
  [[nodiscard]] Snapshot snapshot();

  /// Replace this scenario's entire state with \p snapshot. The snapshot is
  /// validated first (validate()); on failure returns false, fills
  /// \p error when non-null, and leaves the scenario untouched. The grid is
  /// bulk-built from the stored cell size (geom::DynamicGrid::build) —
  /// cell bucket ordering may differ from the donor's, which is
  /// unobservable through any query. Stats counters are preserved
  /// (monotone observability), except restores which increments.
  [[nodiscard]] bool restore(const Snapshot& snapshot,
                             std::string* error = nullptr);

  // --- views -------------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const { return points_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
  /// Positions in id order: a view of the engine's own column, valid until
  /// the next mutation or restore.
  [[nodiscard]] std::span<const geom::Vec2> points() const { return points_; }
  [[nodiscard]] geom::Vec2 position(NodeId v) const { return points_[v]; }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    return adjacency_[v];
  }
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;
  /// r_v^2 — the cached farthest-neighbor squared radius.
  [[nodiscard]] double radius_squared(NodeId v) const { return radii2_[v]; }
  [[nodiscard]] const EvalOptions& options() const { return options_; }

  /// Export the current topology as a graph::Graph snapshot (O(n + m)).
  [[nodiscard]] graph::Graph topology() const;

  /// Nearest node to \p p other than \p exclude via the persistent index
  /// (ties toward the smaller id); kInvalidNode when none exists.
  [[nodiscard]] NodeId nearest_node(geom::Vec2 p,
                                    NodeId exclude = kInvalidNode);

  // --- evaluation (refreshes the cache when a deferred delta dirtied it) --

  /// Per-node interference I(v) of the current topology.
  [[nodiscard]] std::span<const std::uint32_t> interference();

  /// I(v) for a single node.
  [[nodiscard]] std::uint32_t interference_of(NodeId v);

  /// I(G') = max_v I(v), Definition 3.2.
  [[nodiscard]] std::uint32_t max_interference();

  /// Sum of I(v) — the lexicographic tiebreaker used by local search.
  [[nodiscard]] std::uint64_t total_interference();

  /// Full summary (per-node copy + aggregates via from_per_node).
  [[nodiscard]] InterferenceSummary summary();

  [[nodiscard]] const ScenarioStats& stats() const { return stats_; }
  /// Engine configuration + counters (incl. the grid's) as one io::Json
  /// object — the engine's obs surface, registerable with obs::Registry.
  [[nodiscard]] io::Json stats_json() const;

 private:
  /// One node touched by the running apply_batch, keyed by its current id
  /// (re-keyed across swap-with-last renames; kInvalidNode once removed),
  /// with the disk it had before the batch.
  struct TouchedNode {
    NodeId id = kInvalidNode;
    geom::Vec2 orig_pos{};
    double orig_r2 = 0.0;
    bool existed = false;  ///< present before the batch (has a disk to retire)
    bool recount = false;  ///< added or moved: final I(v) needs a recount
  };

  /// A point op: apply_batch over just \p mutation, without a pool.
  /// Returns whether it changed state.
  bool apply_one(const Mutation& mutation);
  void ensure_grid();
  void ensure_cache();
  /// Write-through radius update: the radius column and (when built) the
  /// grid's coverage weight stay in lockstep.
  void set_node_radius2(NodeId u, double new_r2);
  [[nodiscard]] double farthest_neighbor_squared(NodeId u) const;

  /// The model state in id order (dense ids), the shape of a Snapshot:
  /// positions and squared transmission radii.
  geom::PointSet points_;
  std::vector<double> radii2_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::size_t edge_count_ = 0;
  /// Exact max of the radius column (coverage queries walk this disk).
  double max_radius2_ = 0.0;

  std::vector<std::uint32_t> interference_;
  bool dirty_ = true;  ///< cache must be rebuilt by a full evaluation

  geom::DynamicGrid grid_;
  bool grid_built_ = false;

  EvalOptions options_;
  ScenarioStats stats_;

  /// Batch-scoped scratch (apply_batch): reset at the start of every batch,
  /// reused across batches (allocation-free in steady state). Deliberately
  /// not copied — probe copies never carry scratch.
  common::Arena batch_arena_;
  /// The nodes the running batch touched (scratch, not copied).
  std::vector<TouchedNode> batch_touched_;
  /// batch_mark_[id] = 1 + the index of id's batch_touched_ entry, 0 when
  /// untouched. All zero between batches — each batch clears exactly the
  /// ids it marked — so a batch costs nothing per untouched id. Scratch,
  /// not copied.
  std::vector<std::uint32_t> batch_mark_;
};

}  // namespace rim::core
