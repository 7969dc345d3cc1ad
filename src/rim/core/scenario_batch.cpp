#include <algorithm>
#include <cassert>
#include <cmath>

#include "rim/core/scenario.hpp"
#include "rim/geom/grid_kernels.hpp"
#include "rim/parallel/thread_pool.hpp"

/// \file scenario_batch.cpp
/// Scenario::apply_batch — the engine's one mutation executor. Point ops
/// (Scenario::add_node, apply, ...) are batches of one.
///
/// Semantics: identical, bit for bit, to applying the batch's mutations one
/// at a time. The pipeline exploits that the final interference vector is a
/// pure function of the final configuration (containment tests are exact
/// and contributions are commuting integer +-1s — the robustness property
/// of the model), so intermediate states never need to materialise:
///
///  1. One serial *structural pass* applies all topology/position changes
///     (adjacency, positions, radii, grid, swap-with-last renames,
///     cached interference slots) while recording, per touched physical
///     node, its pre-batch disk, and collecting the pre-batch disks of
///     removed nodes.
///  2. The surviving *disk tasks* (one or two region deltas per changed
///     transmitter) are scheduled into waves of pairwise AABB-disjoint
///     regions — greedy first-fit in task order, so the schedule is a
///     deterministic function of the batch. Each wave runs concurrently on
///     the thread pool when the pool has more than one worker (disjoint
///     regions mean disjoint interference_ writes, no atomics needed) and
///     inline otherwise; either way the sums are the same.
///  3. A final wave of *recount tasks* rebuilds I(v) from scratch for every
///     added or moved node (each owns its slot; everything else is frozen
///     reads), overwriting any stale deltas phase 2 wrote there.
///
/// The pass tracks touched nodes sparsely: a list of TouchedNode entries
/// plus a per-id mark (1 + entry index) that is zero between batches, so
/// a batch costs O(its own work), not O(n) — only a shrinking maximum
/// radius triggers a scan of the radius column. Task order is removed
/// disks first (batch order), then the touched nodes in ascending final
/// id; BatchResult::waves and the service's wire bytes depend on it.
///
/// The remaining pipeline scratch — removed disks, task and recount lists,
/// the wave schedule and its materialised execution orders — lives in the
/// scenario's batch arena (common::Arena): bump-allocated per batch, reset
/// wholesale at the next one, allocation-free in steady state. Wave task
/// lambdas capture only raw pointers into the arena (see the
/// wave-vector-scratch lint rule); bounds are exact: removed disks number
/// at most the batch size, and tasks at most removed + 2 * touched.
///
/// When the grid-occupancy estimate says the batch's regions cover more of
/// the instance than a full evaluation would (per task over the
/// EvalOptions::touched_threshold, or in total over n), the pipeline marks
/// the cache dirty instead and the next query performs one sharded full
/// evaluation.

namespace rim::core {

namespace {

/// Waves (and the recount set) with fewer independent tasks than this run
/// inline rather than on the thread pool: submit overhead would exceed the
/// work.
constexpr std::size_t kMinParallelTasks = 4;

/// One coalesced region delta: remove the disk (center, old_r2) and apply
/// (center, new_r2), skipping slot `exclude`. Trivially destructible
/// (arena-resident).
struct DiskTask {
  NodeId exclude = kInvalidNode;
  geom::Vec2 center{};
  double old_r2 = 0.0;
  double new_r2 = 0.0;
  /// Radius of the region the task touches, set once the task list is
  /// complete (phase 3) and read by the conflict tests.
  double reach = 0.0;
};

/// Grid work of a run of tasks: candidates and cells visited.
struct GridWork {
  std::uint64_t nodes = 0;
  std::uint64_t cells = 0;
};

/// Arena-resident singly linked list node of one wave's task indices.
struct WaveNode {
  std::uint32_t task = 0;
  WaveNode* next = nullptr;
};

/// One wave under construction: linked member list plus its size.
struct WaveList {
  WaveNode* head = nullptr;
  WaveNode* tail = nullptr;
  std::uint32_t size = 0;
};

/// Conservative conflict test: the tasks' axis-aligned bounding squares
/// intersect (superset of disk intersection, cheap and exact-arithmetic
/// free of false negatives).
bool tasks_conflict(const DiskTask& a, const DiskTask& b) {
  const double reach = a.reach + b.reach;
  return std::abs(a.center.x - b.center.x) <= reach &&
         std::abs(a.center.y - b.center.y) <= reach;
}

}  // namespace

BatchResult Scenario::apply_batch(std::span<const Mutation> batch) {
  return apply_batch(batch, &parallel::ThreadPool::shared());
}

BatchResult Scenario::apply_batch(std::span<const Mutation> batch,
                                  parallel::ThreadPool* pool,
                                  BatchHooks* hooks) {
  BatchResult result;
  result.abort_index = batch.size();
  if (batch.empty()) return result;
  // A batch seeding an empty scenario adds its leading arrivals to the
  // columns only; the grid is bulk-built from them at the first other
  // mutation or after the pass. The content equals inserting them in id
  // order, and the cell size is the one an empty grid would get.
  if (!points_.empty()) ensure_grid();
  const obs::ScopedTimer timer(stats_.batch_ns);
  ++stats_.batches;
  const bool was_dirty = dirty_;

  // All scratch below lives until the next apply_batch (or copy/assign).
  batch_arena_.reset();

  // ---- 1. Serial structural pass --------------------------------------
  // Ids stay below n0 + batch size (every add raises the ceiling by one).
  const std::size_t id_cap = points_.size() + batch.size();
  if (batch_mark_.size() < id_cap) batch_mark_.resize(id_cap, 0);
  batch_touched_.clear();
  // Pre-batch disks of removed nodes: at most one per removal.
  DiskTask* removed_disks = batch_arena_.alloc_array<DiskTask>(batch.size());
  std::size_t removed_count = 0;
  bool rescan_max = false;

  const auto touch = [&](NodeId id, TouchedNode node) -> TouchedNode& {
    batch_touched_.push_back(node);
    batch_mark_[id] = static_cast<std::uint32_t>(batch_touched_.size());
    return batch_touched_.back();
  };
  // First touch of a node this batch captures its pre-batch disk.
  const auto note = [&](NodeId id) -> TouchedNode& {
    if (batch_mark_[id] != 0) return batch_touched_[batch_mark_[id] - 1];
    return touch(id, {id, points_[id], radii2_[id], true, false});
  };
  const auto change_radius = [&](NodeId id, double new_r2) {
    const double cur_r2 = radii2_[id];
    if (cur_r2 == new_r2) return;
    note(id);
    if (new_r2 > max_radius2_) {
      max_radius2_ = new_r2;
    } else if (cur_r2 == max_radius2_ && new_r2 < cur_r2) {
      rescan_max = true;
    }
    set_node_radius2(id, new_r2);
  };

  for (std::size_t bi = 0; bi < batch.size(); ++bi) {
    if (hooks != nullptr && !hooks->before_mutation(bi)) {
      // Simulated crash: stop dead mid-batch. The applied prefix is
      // consistent structural state, but its region deltas never ran.
      result.aborted = true;
      result.abort_index = bi;
      break;
    }
    const Mutation& m = batch[bi];
    if (m.kind != Mutation::Kind::kAddNode) ensure_grid();
    const std::size_t n = points_.size();
    switch (m.kind) {
      case Mutation::Kind::kAddNode: {
        const auto id = static_cast<NodeId>(n);
        points_.push_back(m.position);
        radii2_.push_back(0.0);
        adjacency_.emplace_back();
        if (grid_built_) grid_.insert(id, m.position, 0.0);
        if (!was_dirty) interference_.push_back(0u);
        touch(id, {id, m.position, 0.0, false, true});
        ++result.applied;
        break;
      }
      case Mutation::Kind::kRemoveNode: {
        if (m.v >= n) break;
        const NodeId v = m.v;
        for (const NodeId w : adjacency_[v]) {
          auto& aw = adjacency_[w];
          aw.erase(std::find(aw.begin(), aw.end(), v));
          --edge_count_;
        }
        const std::vector<NodeId> former = std::move(adjacency_[v]);
        adjacency_[v].clear();
        change_radius(v, 0.0);
        for (const NodeId w : former) {
          change_radius(w, farthest_neighbor_squared(w));
        }
        // Retire the node's *pre-batch* disk (its only applied
        // contribution); a node added this batch never contributed.
        if (batch_mark_[v] != 0) {
          TouchedNode& gone = batch_touched_[batch_mark_[v] - 1];
          if (gone.existed && gone.orig_r2 > 0.0) {
            removed_disks[removed_count++] = {kInvalidNode, gone.orig_pos,
                                              gone.orig_r2, 0.0};
          }
          gone.id = kInvalidNode;
          batch_mark_[v] = 0;
        }
        const auto last = static_cast<NodeId>(n - 1);
        grid_.erase(v);
        if (v != last) {
          points_[v] = points_[last];
          radii2_[v] = radii2_[last];
          adjacency_[v] = std::move(adjacency_[last]);
          for (NodeId w : adjacency_[v]) {
            std::replace(adjacency_[w].begin(), adjacency_[w].end(), last, v);
          }
          grid_.relabel(last, v);
          if (batch_mark_[last] != 0) {
            batch_touched_[batch_mark_[last] - 1].id = v;
            batch_mark_[v] = batch_mark_[last];
            batch_mark_[last] = 0;
          }
        }
        if (!was_dirty && interference_.size() == n) {
          if (v != last) interference_[v] = interference_[last];
          interference_.pop_back();
        }
        points_.pop_back();
        radii2_.pop_back();
        adjacency_.pop_back();
        ++result.applied;
        break;
      }
      case Mutation::Kind::kAddEdge: {
        if (m.u >= n || m.v >= n || m.u == m.v || has_edge(m.u, m.v)) break;
        adjacency_[m.u].push_back(m.v);
        adjacency_[m.v].push_back(m.u);
        ++edge_count_;
        const double d2 =
            geom::dist2(points_[m.u], points_[m.v]);
        if (d2 > radii2_[m.u]) change_radius(m.u, d2);
        if (d2 > radii2_[m.v]) change_radius(m.v, d2);
        ++result.applied;
        break;
      }
      case Mutation::Kind::kRemoveEdge: {
        if (m.u >= n || m.v >= n) break;
        auto& au = adjacency_[m.u];
        const auto it = std::find(au.begin(), au.end(), m.v);
        if (it == au.end()) break;
        au.erase(it);
        auto& av = adjacency_[m.v];
        av.erase(std::find(av.begin(), av.end(), m.u));
        --edge_count_;
        change_radius(m.u, farthest_neighbor_squared(m.u));
        change_radius(m.v, farthest_neighbor_squared(m.v));
        ++result.applied;
        break;
      }
      case Mutation::Kind::kMoveNode: {
        if (m.v >= n) break;
        if (points_[m.v] == m.position) break;  // strict no-op
        note(m.v).recount = true;
        points_[m.v] = m.position;
        grid_.move(m.v, m.position);
        change_radius(m.v, farthest_neighbor_squared(m.v));
        for (NodeId w : adjacency_[m.v]) {
          change_radius(w, farthest_neighbor_squared(w));
        }
        ++result.applied;
        break;
      }
    }
  }
  // The surviving touched nodes in ascending final id; clearing their
  // marks restores the all-zero mark invariant for the next batch.
  std::size_t touched_count = 0;
  for (const TouchedNode& node : batch_touched_) {
    if (node.id == kInvalidNode) continue;
    batch_mark_[node.id] = 0;
    batch_touched_[touched_count++] = node;
  }
  batch_touched_.resize(touched_count);
  std::sort(batch_touched_.begin(), batch_touched_.end(),
            [](const TouchedNode& a, const TouchedNode& b) {
              return a.id < b.id;
            });
  ensure_grid();
  if (rescan_max) {
    max_radius2_ = 0.0;
    for (double r2 : radii2_) max_radius2_ = std::max(max_radius2_, r2);
  }
  stats_.batch_mutations += result.applied;

  if (result.aborted) {
    // Invalidate the cache so queries on the surviving prefix state stay
    // correct; recovery (Scenario::restore + replay) is the caller's job.
    dirty_ = true;
    ++stats_.batch_aborts;
    return result;
  }

  if (was_dirty) {
    // Cache was already invalid: the structural pass is all there is to do.
    result.deferred = true;
    ++stats_.batch_deferred;
    return result;
  }

  // ---- 2. Coalesce the surviving region deltas ------------------------
  // Deterministic task order: removed disks first (batch order), then
  // ascending final id. Exact bound: <= removed + 2 per touched node.
  DiskTask* tasks =
      batch_arena_.alloc_array<DiskTask>(removed_count + 2 * touched_count);
  std::size_t task_count = 0;
  for (std::size_t i = 0; i < removed_count; ++i) {
    tasks[task_count++] = removed_disks[i];
  }
  NodeId* recounts = batch_arena_.alloc_array<NodeId>(touched_count);
  std::size_t recount_count = 0;
  for (const TouchedNode& p : batch_touched_) {
    const NodeId id = p.id;
    const geom::Vec2 new_pos = points_[id];
    const double new_r2 = radii2_[id];
    if (p.existed && p.orig_pos == new_pos) {
      // Radius-only change: one symmetric-difference delta.
      if (p.orig_r2 != new_r2) {
        tasks[task_count++] = {id, new_pos, p.orig_r2, new_r2};
      }
    } else {
      // Moved (or newly added): retire the old disk, apply the new one.
      if (p.existed && p.orig_r2 > 0.0) {
        tasks[task_count++] = {id, p.orig_pos, p.orig_r2, 0.0};
      }
      if (new_r2 > 0.0) {
        tasks[task_count++] = {id, new_pos, 0.0, new_r2};
      }
    }
    if (p.recount) recounts[recount_count++] = id;
  }
  result.disk_tasks = task_count;
  result.recounts = recount_count;
  stats_.batch_disk_tasks += task_count;
  stats_.batch_recounts += recount_count;

  // ---- 3. Defer when the regions rival a full evaluation --------------
  const std::size_t threshold = options_.touched_threshold(points_.size());
  const double max_radius = std::sqrt(std::max(max_radius2_, 0.0));
  std::size_t estimated = 0;
  bool defer = false;
  for (std::size_t i = 0; i < task_count; ++i) {
    DiskTask& task = tasks[i];
    task.reach = std::sqrt(std::max({task.old_r2, task.new_r2, 0.0}));
    const std::size_t est = grid_.estimate_in_disk(task.center, task.reach);
    if (est > threshold) defer = true;
    estimated += est;
  }
  for (std::size_t i = 0; i < recount_count; ++i) {
    const std::size_t est =
        grid_.estimate_in_disk(points_[recounts[i]], max_radius);
    if (est > threshold) defer = true;
    estimated += est;
  }
  if (defer || estimated > points_.size()) {
    dirty_ = true;
    result.deferred = true;
    ++stats_.batch_deferred;
    ++stats_.deferred_mutations;
    return result;
  }

  // ---- 4. Run the disk tasks in conflict-free waves ---------------------
  // The commuting ±1 deltas make the final vector independent of the order
  // and interleaving, as long as no two concurrent tasks write the same
  // slot — which the AABB-disjoint waves guarantee.
  const std::size_t workers = pool != nullptr ? pool->thread_count() : 0;
  // Grid work is summed per inline run or per pool chunk and reaches the
  // shared (relaxed atomic) counters once per sum, not once per task.
  const auto record = [this](const GridWork& work) {
    stats_.nodes_touched += work.nodes;
    stats_.cells_touched += work.cells;
  };
  GridWork inline_work;
  // Hooks veto individual tasks (poisoned-wave faults). The veto is decided
  // from immutable state, so calling it from pool workers is safe. The
  // delta kernel also runs on pool workers: region-disjoint waves
  // guarantee its interference_ writes never overlap.
  const auto run_task = [&](std::size_t wave_idx, std::size_t task_idx,
                            GridWork& work) {
    if (hooks != nullptr && !hooks->before_disk_task(wave_idx, task_idx)) {
      ++stats_.hook_skipped_tasks;
      return;
    }
    const DiskTask& t = tasks[task_idx];
    const geom::DeltaResult r =
        geom::apply_disk_delta(grid_, t.center, t.old_r2, t.new_r2,
                               t.exclude, interference_.data());
    work.nodes += r.visited;
    work.cells += r.cells;
  };
  // Greedy first-fit in task order: each task lands in the earliest wave
  // whose members it conflicts with none of. Purely a function of the
  // batch, so the schedule (and hence the execution) is deterministic.
  // Waves are arena linked lists while under construction, then
  // materialised into one contiguous execution-order array so wave task
  // lambdas capture nothing but raw pointers.
  WaveList* waves = batch_arena_.alloc_array<WaveList>(task_count);
  std::size_t wave_count = 0;
  for (std::size_t i = 0; i < task_count; ++i) {
    std::size_t target = wave_count;
    for (std::size_t w = 0; w < wave_count; ++w) {
      bool conflicts = false;
      for (const WaveNode* node = waves[w].head; node != nullptr;
           node = node->next) {
        if (tasks_conflict(tasks[i], tasks[node->task])) {
          conflicts = true;
          break;
        }
      }
      if (!conflicts) {
        target = w;
        break;
      }
    }
    if (target == wave_count) waves[wave_count++] = WaveList{};
    WaveNode* node =
        batch_arena_.create<WaveNode>(static_cast<std::uint32_t>(i), nullptr);
    WaveList& wave = waves[target];
    if (wave.tail != nullptr) {
      wave.tail->next = node;
    } else {
      wave.head = node;
    }
    wave.tail = node;
    ++wave.size;
  }
  std::uint32_t* order = batch_arena_.alloc_array<std::uint32_t>(task_count);
  {
    std::size_t cursor = 0;
    for (std::size_t w = 0; w < wave_count; ++w) {
      for (const WaveNode* node = waves[w].head; node != nullptr;
           node = node->next) {
        order[cursor++] = node->task;
      }
    }
    assert(cursor == task_count);
  }
  result.waves = wave_count;
  stats_.batch_waves += wave_count;

  const auto run_wave = [&](std::size_t wave_idx,
                            const std::uint32_t* wave_order,
                            std::size_t wave_size) {
    stats_.batch_wave_tasks.record(wave_size);
    if (workers <= 1 || wave_size < kMinParallelTasks) {
      for (std::size_t k = 0; k < wave_size; ++k) {
        run_task(wave_idx, wave_order[k], inline_work);
      }
      return;
    }
    // Chunk the wave so submit overhead stays O(workers), not O(tasks).
    const std::size_t chunks = std::min(wave_size, workers * 2);
    const std::size_t per = (wave_size + chunks - 1) / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * per;
      const std::size_t end = std::min(begin + per, wave_size);
      if (begin >= end) break;
      pool->submit([&run_task, &record, wave_order, wave_idx, begin, end] {
        GridWork work;
        for (std::size_t k = begin; k < end; ++k) {
          run_task(wave_idx, wave_order[k], work);
        }
        record(work);
      });
    }
    pool->wait_idle();
  };
  const std::uint32_t* cursor = order;
  for (std::size_t w = 0; w < wave_count; ++w) {
    run_wave(w, cursor, waves[w].size);
    cursor += waves[w].size;
  }

  // ---- 5. Recount wave ------------------------------------------------
  // Every recount owns its own interference_ slot and only reads the now
  // frozen columns and grid, so the whole set is one parallel wave. The grid
  // weights mirror the radius column, so the coverage kernel needs no side
  // lookups.
  const auto run_recount_task = [&](std::size_t k, GridWork& work) {
    if (hooks != nullptr && !hooks->before_recount(k)) {
      ++stats_.hook_skipped_tasks;
      return;
    }
    const NodeId id = recounts[k];
    const geom::CoverageResult r =
        geom::count_covering(grid_, points_[id], max_radius2_, id);
    interference_[id] = r.covered;
    work.nodes += r.visited;
    work.cells += r.cells;
  };
  if (workers > 1 && recount_count >= kMinParallelTasks) {
    const std::size_t chunks = std::min(recount_count, workers * 2);
    const std::size_t per = (recount_count + chunks - 1) / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * per;
      const std::size_t end = std::min(begin + per, recount_count);
      if (begin >= end) break;
      pool->submit([&run_recount_task, &record, begin, end] {
        GridWork work;
        for (std::size_t k = begin; k < end; ++k) run_recount_task(k, work);
        record(work);
      });
    }
    pool->wait_idle();
  } else {
    for (std::size_t k = 0; k < recount_count; ++k) {
      run_recount_task(k, inline_work);
    }
  }
  record(inline_work);
  stats_.incremental_updates += result.applied;
  return result;
}

}  // namespace rim::core
