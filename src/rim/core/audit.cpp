#include "rim/core/audit.hpp"

#include <algorithm>
#include <array>

#include "rim/core/assessor.hpp"

namespace rim::core {

io::Json AuditReport::to_json() const {
  io::JsonObject o;
  o["checks"] = io::Json(checks);
  o["ok"] = io::Json(ok());
  io::JsonArray rows;
  rows.reserve(violations.size());
  for (const std::string& v : violations) rows.emplace_back(v);
  o["violations"] = io::Json(std::move(rows));
  return io::Json(std::move(o));
}

void InvariantAuditor::record(AuditReport& report, std::string message) const {
  ++violations_;
  if (report.violations.size() < options_.max_violations) {
    report.violations.push_back(std::move(message));
  }
}

AuditReport InvariantAuditor::audit(Scenario& scenario) const {
  ++audits_;
  AuditReport report;
  const std::size_t n = scenario.node_count();
  const std::span<const geom::Vec2> points = scenario.points();

  if (options_.check_structure) {
    std::size_t degree_sum = 0;
    for (NodeId u = 0; u < n; ++u) {
      const std::span<const NodeId> neighbors = scenario.neighbors(u);
      degree_sum += neighbors.size();
      double farthest = 0.0;
      for (const NodeId v : neighbors) {
        ++report.checks;
        if (v >= n) {
          record(report, "node " + std::to_string(u) +
                             " has out-of-range neighbor " +
                             std::to_string(v));
          continue;
        }
        if (v == u) {
          record(report, "node " + std::to_string(u) + " has a self-loop");
          continue;
        }
        if (std::count(neighbors.begin(), neighbors.end(), v) != 1) {
          record(report, "node " + std::to_string(u) +
                             " lists neighbor " + std::to_string(v) +
                             " more than once");
        }
        const std::span<const NodeId> back = scenario.neighbors(v);
        if (std::find(back.begin(), back.end(), u) == back.end()) {
          record(report, "edge {" + std::to_string(u) + "," +
                             std::to_string(v) + "} is asymmetric");
        }
        farthest = std::max(farthest, geom::dist2(points[u], points[v]));
      }
      ++report.checks;
      // Exact comparison on purpose: the engine derives every cached
      // radius from the same geom::dist2 expression, so any difference is
      // a lost update, not floating-point noise.
      if (scenario.radius_squared(u) != farthest) {
        record(report, "node " + std::to_string(u) +
                           " cached r^2 differs from farthest-neighbor "
                           "distance (lost radius update)");
      }
    }
    ++report.checks;
    if (degree_sum != 2 * scenario.edge_count()) {
      record(report, "edge count " + std::to_string(scenario.edge_count()) +
                         " disagrees with adjacency degree sum " +
                         std::to_string(degree_sum));
    }
  }

  if (options_.check_interference) {
    std::vector<double> radii2(n);
    for (NodeId v = 0; v < n; ++v) radii2[v] = scenario.radius_squared(v);
    const std::vector<std::uint32_t> oracle =
        interference_vector_squared(points, radii2, Strategy::kBrute);
    const std::span<const std::uint32_t> cached = scenario.interference();
    for (NodeId v = 0; v < n; ++v) {
      ++report.checks;
      if (cached[v] != oracle[v]) {
        record(report, "node " + std::to_string(v) + " cached I(v)=" +
                           std::to_string(cached[v]) +
                           " but kBrute oracle says " +
                           std::to_string(oracle[v]));
      }
    }
  }

  checks_ += report.checks;
  return report;
}

AuditReport InvariantAuditor::audit_robustness(
    Scenario& scenario, std::span<const geom::Vec2> probes) const {
  ++audits_;
  AuditReport report;
  const std::size_t n = scenario.node_count();
  for (const geom::Vec2 p : probes) {
    const NodeId partner = scenario.nearest_node(p);
    if (partner == kInvalidNode) continue;
    // When the partner's disk already covers the probe, attaching the
    // newcomer leaves the partner's radius unchanged: only the newcomer's
    // own disk is added, and Definition 3.2 bounds every delta by 1. When
    // the partner's disk must grow to reach the newcomer, its enlargement
    // contributes at most one more unit: bound 2.
    const bool partner_covers =
        geom::dist2(p, scenario.position(partner)) <=
        scenario.radius_squared(partner);
    const std::int64_t bound = partner_covers ? 1 : 2;
    const std::array<Mutation, 2> arrival = {
        Mutation::add_node(p),
        Mutation::add_edge(static_cast<NodeId>(n), partner)};
    const Assessment assessment = Assessor{}.assess(scenario, arrival);
    for (const NodeId v : assessment.affected_ids) {
      ++report.checks;
      const std::int64_t delta = assessment.delta_per_node[v];
      if (delta > bound || delta < 0) {
        record(report,
               "single addition perturbed node " + std::to_string(v) +
                   " by " + std::to_string(delta) + " (bound " +
                   std::to_string(bound) + ", Definition 3.2)");
      }
    }
    ++report.checks;
    // Disks are only added or enlarged by an arrival, so I(G') cannot drop.
    if (assessment.max_after < assessment.max_before) {
      record(report, "adding a node lowered I(G') from " +
                         std::to_string(assessment.max_before) + " to " +
                         std::to_string(assessment.max_after));
    }
  }
  checks_ += report.checks;
  return report;
}

io::Json InvariantAuditor::stats_json() const {
  io::JsonObject o;
  o["audits"] = audits_.to_json();
  o["checks"] = checks_.to_json();
  o["violations"] = violations_.to_json();
  return io::Json(std::move(o));
}

}  // namespace rim::core
