#include "rim/sim/churn.hpp"

#include <algorithm>

#include "rim/core/scenario.hpp"
#include "rim/core/sender_centric.hpp"
#include "rim/graph/udg.hpp"
#include "rim/sim/rng.hpp"

namespace rim::sim {

std::uint32_t ChurnTrace::max_receiver_jump() const {
  std::uint32_t jump = 0;
  for (std::size_t i = 1; i < steps.size(); ++i) {
    if (steps[i].receiver_max > steps[i - 1].receiver_max) {
      jump = std::max(jump, steps[i].receiver_max - steps[i - 1].receiver_max);
    }
  }
  return jump;
}

std::uint32_t ChurnTrace::max_sender_jump() const {
  std::uint32_t jump = 0;
  for (std::size_t i = 1; i < steps.size(); ++i) {
    if (steps[i].sender_max > steps[i - 1].sender_max) {
      jump = std::max(jump, steps[i].sender_max - steps[i - 1].sender_max);
    }
  }
  return jump;
}

ChurnTrace run_churn(const ChurnConfig& config, const topology::Builder& builder) {
  Rng rng(config.seed);
  geom::PointSet points;
  points.reserve(config.initial_nodes + config.events);
  for (std::size_t i = 0; i < config.initial_nodes; ++i) {
    points.push_back({rng.uniform(0.0, config.side), rng.uniform(0.0, config.side)});
  }

  ChurnTrace trace;
  trace.steps.reserve(config.events + 1);
  const auto record = [&](bool added) {
    const graph::Graph udg = graph::build_udg(points, config.radius);
    const graph::Graph topo = builder(points, udg);
    // The builder rewires the whole topology per event, so each step is a
    // fresh one-shot Scenario; workloads that mutate a fixed topology
    // should hold one Scenario across events instead (bench_incremental).
    core::Scenario scenario(points, topo);
    ChurnStep step;
    step.added = added;
    step.node_count = points.size();
    step.receiver_max = scenario.max_interference();
    step.sender_max =
        core::evaluate_sender_centric(topo, points, core::EvalOptions{}).max;
    trace.steps.push_back(step);
  };
  record(true);  // initial state

  for (std::size_t event = 0; event < config.events; ++event) {
    const bool add =
        points.size() <= 2 || rng.next_double() < config.add_probability;
    if (add) {
      if (rng.next_double() < config.outlier_probability) {
        points.push_back({config.side + 0.95 * config.radius,
                          rng.uniform(0.0, config.side)});
      } else {
        points.push_back(
            {rng.uniform(0.0, config.side), rng.uniform(0.0, config.side)});
      }
    } else {
      const std::size_t victim = rng.next_below(points.size());
      points.erase(points.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    record(add);
  }
  return trace;
}

}  // namespace rim::sim
