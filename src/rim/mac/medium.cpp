#include "rim/mac/medium.hpp"

#include <algorithm>
#include <cassert>

#include "rim/core/interference.hpp"
#include "rim/core/radii.hpp"

namespace rim::mac {

Medium::Medium(const graph::Graph& topology, std::span<const geom::Vec2> points)
    : covered_by_(core::covering_sets(topology, points)),
      radii_(core::transmission_radii(topology, points)) {}

bool Medium::covers(NodeId u, NodeId v) const {
  const auto& list = covered_by_[v];
  return std::binary_search(list.begin(), list.end(), u);
}

bool Medium::frame_received(NodeId u, NodeId v,
                            std::span<const std::uint8_t> transmitting) const {
  assert(transmitting.size() == node_count());
  if (!transmitting[u]) return false;
  if (transmitting[v]) return false;  // half duplex
  if (!covers(u, v)) return false;    // out of range
  for (NodeId w : covered_by_[v]) {
    if (w != u && transmitting[w]) return false;  // collision at the receiver
  }
  return true;
}

}  // namespace rim::mac
