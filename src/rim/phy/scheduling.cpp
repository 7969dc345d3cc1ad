#include "rim/phy/scheduling.hpp"

#include <algorithm>
#include <utility>

#include "rim/core/radii.hpp"
#include "rim/mac/medium.hpp"
#include "rim/simd/simd.hpp"

namespace rim::phy {

std::size_t Schedule::scheduled_links() const {
  std::size_t count = 0;
  for (const auto& slot : slots) count += slot.size();
  return count;
}

namespace {

bool share_endpoint(graph::Edge a, graph::Edge b) {
  return a.u == b.u || a.u == b.v || a.v == b.u || a.v == b.v;
}

/// Disk-model conflict between directed links a.u->a.v and b.u->b.v.
bool disk_conflict(graph::Edge a, graph::Edge b, const mac::Medium& medium) {
  // Shared endpoint: a radio cannot do two things per slot.
  if (share_endpoint(a, b)) return true;
  // Cross coverage: b's transmitter disturbs a's receiver or vice versa.
  return medium.covers(b.u, a.v) || medium.covers(a.u, b.v);
}

/// Greedy first-fit over edges in canonical order: each edge joins the
/// first slot whose admits(slot, e) holds, else opens a new slot.
template <typename Admits>
Schedule first_fit(const graph::Graph& topology, Admits admits) {
  Schedule schedule;
  for (graph::Edge e : topology.edges()) {
    const auto slot =
        std::find_if(schedule.slots.begin(), schedule.slots.end(),
                     [&](const std::vector<graph::Edge>& s) {
                       return admits(s, e);
                     });
    if (slot != schedule.slots.end()) {
      slot->push_back(e);
    } else {
      schedule.slots.push_back({e});
    }
  }
  return schedule;
}

}  // namespace

Schedule schedule_links_disk(const graph::Graph& topology,
                             std::span<const geom::Vec2> points) {
  const mac::Medium medium(topology, points);
  return first_fit(topology, [&](const std::vector<graph::Edge>& slot,
                                 graph::Edge e) {
    return std::none_of(slot.begin(), slot.end(), [&](graph::Edge other) {
      return disk_conflict(e, other, medium);
    });
  });
}

Schedule schedule_links_sinr(const graph::Graph& topology,
                             std::span<const geom::Vec2> points,
                             const core::SinrOptions& sinr) {
  const std::vector<double> radii2 =
      core::transmission_radii_squared(topology, points);
  const double cutoff_factor = sinr.cutoff_factor();
  const double kappa = sinr.kappa();
  const double sig = sinr.significant_threshold();
  // SoA columns of a tentative slot's transmitters, one lane per link.
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> ws;
  const auto power_at = [&](NodeId v, std::size_t lane, std::size_t n) {
    return simd::sinr_gather_scalar(xs.data() + lane, ys.data() + lane,
                                    ws.data() + lane, n, points[v].x,
                                    points[v].y, cutoff_factor, kappa,
                                    sinr.half_alpha, sig)
        .power;
  };
  return first_fit(topology, [&](const std::vector<graph::Edge>& slot,
                                 graph::Edge e) {
    if (std::any_of(slot.begin(), slot.end(), [&](graph::Edge other) {
          return share_endpoint(e, other);
        })) {
      return false;
    }
    xs.clear();
    ys.clear();
    ws.clear();
    const auto link_at = [&](std::size_t i) {
      return i < slot.size() ? slot[i] : e;
    };
    for (std::size_t i = 0; i <= slot.size(); ++i) {
      const NodeId u = link_at(i).u;
      xs.push_back(points[u].x);
      ys.push_back(points[u].y);
      ws.push_back(radii2[u]);
    }
    // Every member must still decode: its own lane is the signal, and
    // silencing that lane (a radius-0 lane contributes nothing) leaves the
    // gather over the other transmitters.
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const NodeId v = link_at(i).v;
      const double signal = power_at(v, i, 1);
      const double own = std::exchange(ws[i], 0.0);
      const double interference = power_at(v, 0, ws.size());
      ws[i] = own;
      if (!(signal / (sinr.noise + interference) >= sinr.beta)) return false;
    }
    return true;
  });
}

bool schedule_valid_disk(const Schedule& schedule, const graph::Graph& topology,
                         std::span<const geom::Vec2> points) {
  // Exactly the edge set, once each.
  std::vector<graph::Edge> scheduled;
  for (const auto& slot : schedule.slots) {
    scheduled.insert(scheduled.end(), slot.begin(), slot.end());
  }
  std::vector<graph::Edge> expected(topology.edges().begin(),
                                    topology.edges().end());
  std::sort(scheduled.begin(), scheduled.end());
  std::sort(expected.begin(), expected.end());
  if (scheduled != expected) return false;

  const mac::Medium medium(topology, points);
  for (const auto& slot : schedule.slots) {
    for (std::size_t i = 0; i < slot.size(); ++i) {
      for (std::size_t j = i + 1; j < slot.size(); ++j) {
        if (disk_conflict(slot[i], slot[j], medium)) return false;
      }
    }
  }
  return true;
}

}  // namespace rim::phy
