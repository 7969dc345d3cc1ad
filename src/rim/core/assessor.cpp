#include "rim/core/assessor.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <vector>

#include "rim/core/radii.hpp"
#include "rim/core/sender_centric.hpp"
#include "rim/core/sinr.hpp"

namespace rim::core {

InterferenceSummary Assessor::assess(const graph::Graph& topology,
                                     std::span<const geom::Vec2> points,
                                     const EvalOptions& options) const {
  if (options.model == Model::kSinr) {
    return SinrAssessor{}.assess(topology, points, options).to_interference();
  }
  if (options.model == Model::kSenderCentric) {
    // Project the per-edge coverage onto nodes so the three models share
    // one result type: a node carries the worst coverage among its
    // incident links. max over nodes == max over edges (every edge has
    // endpoints), so `max` is exactly the MobiHoc'04 I(G'); mean/total are
    // the node-projected aggregates, not the per-edge ones.
    const SenderCentricSummary sc =
        evaluate_sender_centric(topology, points, options);
    std::vector<std::uint32_t> per_node(points.size(), 0);
    std::size_t i = 0;
    for (const graph::Edge e : topology.edges()) {
      const std::uint32_t cov = sc.per_edge[i++];
      per_node[e.u] = std::max(per_node[e.u], cov);
      per_node[e.v] = std::max(per_node[e.v], cov);
    }
    return InterferenceSummary::from_per_node(std::move(per_node));
  }
  return InterferenceSummary::from_per_node(interference_vector_squared(
      points, transmission_radii_squared(topology, points), options));
}

Assessment Assessor::assess(Scenario& scenario,
                            std::span<const Mutation> mutations) const {
  const std::span<const std::uint32_t> current = scenario.interference();
  const std::size_t n0 = scenario.node_count();
  const std::vector<std::uint32_t> before(current.begin(), current.end());

  Assessment result;
  for (std::uint32_t i : before) {
    result.max_before = std::max(result.max_before, i);
  }

  // Run the sequence on a probe copy; `tag[cur]` names each current probe
  // id in the pre-mutation space (pre ids 0..n0-1, added nodes n0, n0+1,
  // ...), maintained across swap-with-last renames from removals.
  Scenario probe(scenario);
  std::vector<std::size_t> tag(n0);
  std::iota(tag.begin(), tag.end(), std::size_t{0});
  std::size_t next_added = n0;
  for (const Mutation& m : mutations) {
    if (m.kind == Mutation::Kind::kAddNode) {
      probe.apply(m);
      tag.push_back(next_added++);
    } else if (m.kind == Mutation::Kind::kRemoveNode) {
      if (m.v >= probe.node_count()) continue;
      const auto last = static_cast<NodeId>(probe.node_count() - 1);
      probe.apply(m);
      if (last != m.v) tag[m.v] = tag[last];
      tag.pop_back();
    } else {
      probe.apply(m);
    }
  }
  const std::span<const std::uint32_t> after = probe.interference();

  // Resolve where every pre-existing node ended up (kInvalidNode: removed)
  // and find the newest surviving addition.
  std::vector<NodeId> current_of(n0, kInvalidNode);
  std::size_t newest_tag = 0;
  NodeId newest_id = kInvalidNode;
  for (NodeId cur = 0; cur < tag.size(); ++cur) {
    if (tag[cur] < n0) {
      current_of[tag[cur]] = cur;
    } else if (tag[cur] >= newest_tag) {
      newest_tag = tag[cur];
      newest_id = cur;
    }
  }

  result.delta_per_node.resize(n0, 0);
  for (NodeId pre = 0; pre < n0; ++pre) {
    const NodeId cur = current_of[pre];
    const std::int64_t delta =
        cur == kInvalidNode
            ? -static_cast<std::int64_t>(before[pre])
            : static_cast<std::int64_t>(after[cur]) -
                  static_cast<std::int64_t>(before[pre]);
    result.delta_per_node[pre] = delta;
    if (delta != 0) result.affected_ids.push_back(pre);
  }
  result.max_after = probe.max_interference();
  if (newest_id != kInvalidNode) {
    result.newcomer_interference = after[newest_id];
  }
  return result;
}

NodeAdditionImpact Assessor::assess_addition(std::span<const geom::Vec2> points,
                                             const graph::Graph& topology,
                                             geom::Vec2 new_point,
                                             AttachPolicy policy) const {
  assert(points.size() == topology.node_count());
  NodeAdditionImpact impact;

  Scenario scenario(points, topology, options_);
  impact.sender_before =
      evaluate_sender_centric(topology, points, options_).max;

  // The arrival as a mutation sequence: the node itself, plus (policy
  // permitting) the attachment edge to its nearest pre-existing neighbor.
  // The sequence is measured on a probe copy of the scenario.
  const auto newcomer = static_cast<NodeId>(points.size());
  std::array<Mutation, 2> sequence{Mutation::add_node(new_point), {}};
  std::size_t length = 1;
  if (policy == AttachPolicy::kNearestNeighbor && !points.empty()) {
    sequence[length++] =
        Mutation::add_edge(newcomer, scenario.nearest_node(new_point));
  }
  const Assessment assessment =
      assess(scenario, std::span<const Mutation>(sequence.data(), length));

  impact.receiver_before = assessment.max_before;
  impact.receiver_after = assessment.max_after;
  impact.newcomer_interference = assessment.newcomer_interference;
  for (const std::int64_t delta : assessment.delta_per_node) {
    if (delta > 0) {
      impact.receiver_max_node_increase =
          std::max(impact.receiver_max_node_increase,
                   static_cast<std::uint32_t>(delta));
    }
  }

  // The sender-centric comparison needs the mutated topology for real.
  for (std::size_t i = 0; i < length; ++i) scenario.apply(sequence[i]);
  impact.sender_after =
      evaluate_sender_centric(scenario.topology(), scenario.points(), options_)
          .max;
  return impact;
}

NodeRemovalImpact Assessor::assess_removal(std::span<const geom::Vec2> points,
                                           const graph::Graph& topology,
                                           NodeId victim) const {
  assert(victim < topology.node_count());
  NodeRemovalImpact impact;

  Scenario scenario(points, topology, options_);
  const Assessment assessment =
      assess(scenario, Mutation::remove_node(victim));

  impact.receiver_before = assessment.max_before;
  impact.receiver_after = assessment.max_after;
  // The victim's own delta is -I(victim); only survivors can increase.
  for (const std::int64_t delta : assessment.delta_per_node) {
    if (delta > 0) {
      impact.receiver_max_node_increase =
          std::max(impact.receiver_max_node_increase,
                   static_cast<std::uint32_t>(delta));
    }
  }
  return impact;
}

}  // namespace rim::core
