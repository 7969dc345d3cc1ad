#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "rim/core/scenario.hpp"
#include "rim/geom/vec2.hpp"
#include "rim/graph/graph.hpp"
#include "rim/io/json.hpp"

/// \file mirror.hpp
/// What the benchmark needs to check the program's answers and to replay
/// its requests layer by layer: seeded inputs, request payloads built
/// exactly as svc::Client builds them, and response bodies built exactly as
/// svc::Service builds them from a mirror core::Scenario.

namespace perfbench {

/// Inputs and flags of one run (the command line).
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_path;  ///< where the traced run writes its span dump
};

/// Independent sub-seed \p stream of \p seed (splitmix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// A uniform deployment at the given density with its nearest-neighbour
/// forest, as E19/E22/E23 build their tiers.
struct Deployment {
  double side = 0.0;
  std::vector<rim::geom::Vec2> points;
  rim::graph::Graph topology;
  double deploy_ms = 0.0;    ///< point generation
  double topology_ms = 0.0;  ///< NNF construction
};
[[nodiscard]] Deployment make_deployment(std::size_t nodes, double density,
                                         std::uint64_t seed);

/// The batch that builds \p deployment from an empty session: every node,
/// then every edge.
[[nodiscard]] std::vector<rim::core::Mutation> seed_batch(
    const Deployment& deployment);

// --- request payloads (svc::Client::try_call) -------------------------------

[[nodiscard]] rim::io::JsonObject session_params(std::uint64_t session);
[[nodiscard]] rim::io::Json mutations_json(
    std::span<const rim::core::Mutation> mutations);
[[nodiscard]] std::string request_payload(const std::string& command,
                                          std::uint64_t id,
                                          rim::io::JsonObject params);

// --- response bodies (svc::Service) ------------------------------------------

/// query_interference without "v": {"max","per_node","total"}.
[[nodiscard]] rim::io::Json query_all_result(
    std::span<const std::uint32_t> per_node, std::uint32_t max,
    std::uint64_t total);
[[nodiscard]] rim::io::Json query_all_result(rim::core::Scenario& scenario);
[[nodiscard]] rim::io::Json query_one_result(rim::NodeId v,
                                             std::uint32_t value);
[[nodiscard]] rim::io::Json assessment_result(
    const rim::core::Assessment& assessment);
[[nodiscard]] rim::io::Json batch_result(const rim::core::BatchResult& result);

/// Mean-per-key accumulator for the per-layer replay timings.
class LayerSums {
 public:
  void add(const std::string& key, double value) {
    auto& [sum, count] = sums_[key];
    sum += value;
    ++count;
  }
  [[nodiscard]] double mean(const std::string& key) const {
    const auto it = sums_.find(key);
    return it == sums_.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  }
  [[nodiscard]] double sum(const std::string& key) const {
    const auto it = sums_.find(key);
    return it == sums_.end() ? 0.0 : it->second.first;
  }

 private:
  std::map<std::string, std::pair<double, std::size_t>> sums_;
};

}  // namespace perfbench
