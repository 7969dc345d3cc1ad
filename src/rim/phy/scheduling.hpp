#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rim/core/interference.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"

/// \file scheduling.hpp
/// One-shot link scheduling: partition a topology's links into the minimum
/// number of conflict-free slots (greedily), under either the paper's disk
/// model or the physical SINR model of core::SinrOptions (core/sinr.hpp).
///
/// The resulting frame length is the congestion notion of Meyer auf de
/// Heide et al. (SPAA 2002), the paper's reference [11]: a topology where
/// every node suffers interference I needs Ω(I)-ish slots to activate all
/// its links, so frame length is the throughput-side shadow of the paper's
/// measure — experiment E16 quantifies the correlation.

namespace rim::phy {

struct Schedule {
  /// slots[k] holds the links (directed e.u -> e.v) fired in slot k.
  std::vector<std::vector<graph::Edge>> slots;

  [[nodiscard]] std::size_t length() const { return slots.size(); }
  [[nodiscard]] std::size_t scheduled_links() const;
};

/// Disk-model conflicts: two links conflict when they share an endpoint or
/// when one transmitter's disk (farthest-neighbor radius) covers the other
/// link's receiver. Greedy first-fit over edges in canonical order.
[[nodiscard]] Schedule schedule_links_disk(const graph::Graph& topology,
                                           std::span<const geom::Vec2> points);

/// SINR-model scheduling under \p sinr, with every node's power set from
/// its farthest-neighbor radius by the rule of core/sinr.hpp. Link u -> v
/// decodes when signal / (noise + interference) >= beta, where the signal
/// is simd::sinr_gather_scalar at v over u alone and the interference the
/// same gather over the slot's other transmitters — so far-field
/// truncation and coincident-node exclusion are exactly SinrAssessor's.
/// Greedy first-fit admits a link into a slot while every member still
/// decodes; links sharing an endpoint never share a slot (half duplex).
/// A link that cannot decode even alone gets a slot of its own, so every
/// link is scheduled exactly once. In particular a link whose endpoints
/// coincide has zero signal — the kernel excludes d2 == 0 instead of
/// clamping the distance — and always runs solo.
[[nodiscard]] Schedule schedule_links_sinr(const graph::Graph& topology,
                                           std::span<const geom::Vec2> points,
                                           const core::SinrOptions& sinr = {});

/// Validity check for tests: every topology edge appears exactly once and
/// every slot is conflict-free under the respective model.
[[nodiscard]] bool schedule_valid_disk(const Schedule& schedule,
                                       const graph::Graph& topology,
                                       std::span<const geom::Vec2> points);

}  // namespace rim::phy
