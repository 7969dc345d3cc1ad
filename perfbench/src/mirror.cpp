#include "mirror.hpp"

#include <cmath>
#include <utility>

#include "rim/sim/random_deployment.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/topology/nearest_neighbor_forest.hpp"
#include "stats.hpp"

namespace perfbench {

using rim::io::Json;
using rim::io::JsonArray;
using rim::io::JsonObject;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Deployment make_deployment(std::size_t nodes, double density,
                           std::uint64_t seed) {
  Deployment d;
  d.side = std::sqrt(static_cast<double>(nodes) / density);
  auto t0 = Clock::now();
  const rim::sim::RandomDeployment deployment(
      rim::sim::RandomDeployment::Params{}
          .with_kind(rim::sim::RandomDeployment::Kind::kUniform)
          .with_nodes(nodes)
          .with_side(d.side),
      seed);
  d.points = deployment.generate();
  auto t1 = Clock::now();
  d.topology = rim::topology::nearest_neighbor_forest(d.points);
  auto t2 = Clock::now();
  d.deploy_ms = seconds_between(t0, t1) * 1e3;
  d.topology_ms = seconds_between(t1, t2) * 1e3;
  return d;
}

std::vector<rim::core::Mutation> seed_batch(const Deployment& deployment) {
  std::vector<rim::core::Mutation> batch;
  batch.reserve(deployment.points.size() + deployment.topology.edge_count());
  for (const rim::geom::Vec2 p : deployment.points) {
    batch.push_back(rim::core::Mutation::add_node(p));
  }
  for (const rim::graph::Edge e : deployment.topology.edges()) {
    batch.push_back(rim::core::Mutation::add_edge(e.u, e.v));
  }
  return batch;
}

JsonObject session_params(std::uint64_t session) {
  JsonObject params;
  params["session"] = Json(session);
  return params;
}

Json mutations_json(std::span<const rim::core::Mutation> mutations) {
  JsonArray array;
  array.reserve(mutations.size());
  for (const rim::core::Mutation& m : mutations) {
    array.push_back(rim::svc::mutation_to_json(m));
  }
  return Json(std::move(array));
}

std::string request_payload(const std::string& command, std::uint64_t id,
                            JsonObject params) {
  params["cmd"] = Json(command);
  params["id"] = Json(id);
  return Json(std::move(params)).dump();
}

Json query_all_result(std::span<const std::uint32_t> per_node,
                      std::uint32_t max, std::uint64_t total) {
  JsonObject result;
  JsonArray values;
  values.reserve(per_node.size());
  for (const std::uint32_t value : per_node) values.emplace_back(value);
  result["max"] = Json(max);
  result["per_node"] = Json(std::move(values));
  result["total"] = Json(total);
  return Json(std::move(result));
}

Json query_all_result(rim::core::Scenario& scenario) {
  const std::span<const std::uint32_t> per_node = scenario.interference();
  return query_all_result(per_node, scenario.max_interference(),
                          scenario.total_interference());
}

Json query_one_result(rim::NodeId v, std::uint32_t value) {
  JsonObject result;
  result["node"] = Json(v);
  result["value"] = Json(value);
  return Json(std::move(result));
}

Json assessment_result(const rim::core::Assessment& assessment) {
  JsonObject object;
  JsonArray affected;
  affected.reserve(assessment.affected_ids.size());
  for (const rim::NodeId v : assessment.affected_ids) affected.emplace_back(v);
  object["affected_ids"] = Json(std::move(affected));
  JsonArray deltas;
  deltas.reserve(assessment.delta_per_node.size());
  for (const std::int64_t d : assessment.delta_per_node) {
    deltas.emplace_back(static_cast<long long>(d));
  }
  object["delta_per_node"] = Json(std::move(deltas));
  object["max_after"] = Json(assessment.max_after);
  object["max_before"] = Json(assessment.max_before);
  object["newcomer_interference"] = Json(assessment.newcomer_interference);
  return Json(std::move(object));
}

Json batch_result(const rim::core::BatchResult& result) {
  JsonObject object;
  object["abort_index"] = Json(result.abort_index);
  object["aborted"] = Json(result.aborted);
  object["applied"] = Json(result.applied);
  object["deferred"] = Json(result.deferred);
  object["disk_tasks"] = Json(result.disk_tasks);
  object["recounts"] = Json(result.recounts);
  object["waves"] = Json(result.waves);
  return Json(std::move(object));
}

}  // namespace perfbench
