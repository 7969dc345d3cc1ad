#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rim/core/scenario.hpp"
#include "rim/geom/dynamic_grid.hpp"
#include "rim/sim/rng.hpp"

/// \file local_trace.hpp
/// Spatially local churn generator shared by the large-scale pipeline
/// bench (E19) and perfbench. sim::make_churn_batch() teleports moved nodes
/// anywhere in the square, which is fine for small tenants but at 100k
/// nodes over an MST would stretch disks across the deployment and push
/// every batch into the deferred full-evaluation path — measuring nothing.
/// This generator tracks node positions through renames and keeps moves and
/// new edges local, so the incremental machinery (the disk-task waves) is
/// what gets timed.

namespace rim::bench {

class LocalTrace {
 public:
  LocalTrace(std::span<const geom::Vec2> points, double side,
             std::uint64_t seed)
      : pos_(points.begin(), points.end()),
        grid_(1.0),
        side_(side),
        rng_(seed) {
    for (NodeId v = 0; v < pos_.size(); ++v) grid_.insert(v, pos_[v]);
  }

  std::vector<core::Mutation> next_batch(std::size_t size) {
    using core::Mutation;
    std::vector<Mutation> batch;
    batch.reserve(size + size / 8);
    const std::size_t removes = size * 15 / 100;
    for (std::size_t i = 0; i < removes && pos_.size() > 8; ++i) {
      const auto victim = static_cast<NodeId>(rng_.next_below(pos_.size()));
      const auto last = static_cast<NodeId>(pos_.size() - 1);
      batch.push_back(Mutation::remove_node(victim));
      grid_.erase(victim);  // mirror the engine's swap-with-last
      if (victim != last) grid_.relabel(last, victim);
      pos_[victim] = pos_.back();
      pos_.pop_back();
    }
    const std::size_t moves = size * 35 / 100;
    for (std::size_t i = 0; i < moves; ++i) {
      const auto v = static_cast<NodeId>(rng_.next_below(pos_.size()));
      const geom::Vec2 p{clamp(pos_[v].x + rng_.uniform(-0.4, 0.4)),
                         clamp(pos_[v].y + rng_.uniform(-0.4, 0.4))};
      batch.push_back(Mutation::move_node(v, p));
      grid_.move(v, p);
      pos_[v] = p;
    }
    const std::size_t adds = size * 15 / 100;
    for (std::size_t i = 0; i < adds; ++i) {
      const auto anchor = static_cast<NodeId>(rng_.next_below(pos_.size()));
      const geom::Vec2 p{clamp(pos_[anchor].x + rng_.uniform(-0.5, 0.5)),
                         clamp(pos_[anchor].y + rng_.uniform(-0.5, 0.5))};
      const auto id = static_cast<NodeId>(pos_.size());
      batch.push_back(Mutation::add_node(p));
      batch.push_back(Mutation::add_edge(id, grid_.nearest(p)));
      grid_.insert(id, p);
      pos_.push_back(p);
    }
    for (std::size_t i = removes + moves + adds; i < size; ++i) {
      // Edge flips between nearest-neighbor pairs keep disks bounded.
      const auto u = static_cast<NodeId>(rng_.next_below(pos_.size()));
      const NodeId v = grid_.nearest(pos_[u], u);
      if (v == kInvalidNode) continue;
      batch.push_back(rng_.next_double() < 0.5 ? Mutation::add_edge(u, v)
                                               : Mutation::remove_edge(u, v));
    }
    return batch;
  }

 private:
  [[nodiscard]] double clamp(double x) const {
    return x < 0.0 ? 0.0 : (x > side_ ? side_ : x);
  }

  std::vector<geom::Vec2> pos_;
  geom::DynamicGrid grid_;
  double side_;
  sim::Rng rng_;
};

/// FNV-1a over the little-endian bytes of an interference vector — the same
/// digest sim::WorkloadDriver reports, so checksums are comparable across
/// benches.
[[nodiscard]] inline std::uint64_t fnv1a_interference(
    std::span<const std::uint32_t> values) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint32_t v : values) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (v >> shift) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

}  // namespace rim::bench
