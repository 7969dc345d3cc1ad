/// Workload point_edits_tcp: one svc::Service behind an in-process
/// svc::TcpServer on 127.0.0.1 (rim_cli serve defaults), driven by two
/// closed-loop client threads with one TcpClientTransport each. Each client
/// owns one session seeded with a 1,024-node uniform deployment wired as its
/// nearest-neighbour forest, and sends single-command traffic: about 2/3
/// point reads (query_interference with "v") and 1/3 edits (a local move
/// nudge, or an add_edge/remove_edge flip between nearest neighbours). The
/// engine does about a microsecond per request, so sockets, the reader and
/// dispatch threads, JSON and session checkout carry this workload.

#include <memory>
#include <thread>
#include <unordered_set>

#include "mirror.hpp"
#include "rim/core/scenario.hpp"
#include "rim/geom/dynamic_grid.hpp"
#include "rim/sim/rng.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/tcp.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rim::NodeId;
using rim::core::Mutation;
using rim::core::Scenario;

constexpr std::size_t kClients = 2;
constexpr std::size_t kNodes = 1024;
constexpr double kDensity = 12.5;
constexpr double kNudge = 0.25;  ///< move: home position +- this per axis
constexpr int kSetupRepeats = 9;
/// Sub-windows of the measured window (serving.hpp).
constexpr std::size_t kSlices = 10;
/// Generous ceiling on requests one client completes per second.
constexpr double kMaxOpsPerSecond = 40000.0;

enum class OpKind : std::uint8_t { kQuery, kMove, kAddEdge, kRemoveEdge };

struct Op {
  OpKind kind = OpKind::kQuery;
  NodeId u = 0;
  NodeId v = 0;
  rim::geom::Vec2 p{};
};

/// One client's session: its deployment and its precomputed request stream.
struct SessionInput {
  Deployment deployment;
  std::vector<Mutation> seed;
  std::vector<Op> ops;
};

std::uint64_t edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// The request stream: reads with probability 2/3; otherwise a move nudge
/// around the node's home position or a nearest-neighbour edge flip, half
/// and half. Moves revert towards home, so edges stay short and the
/// stream is stationary however long the run.
std::vector<Op> make_ops(const Deployment& d, std::size_t count,
                         std::uint64_t seed) {
  rim::sim::Rng rng(seed);
  std::vector<rim::geom::Vec2> pos = d.points;
  rim::geom::DynamicGrid grid(1.0);
  for (NodeId v = 0; v < pos.size(); ++v) grid.insert(v, pos[v]);
  std::unordered_set<std::uint64_t> edges;
  for (const rim::graph::Edge e : d.topology.edges()) {
    edges.insert(edge_key(e.u, e.v));
  }
  const auto clamp = [&](double x) { return std::clamp(x, 0.0, d.side); };
  std::vector<Op> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    Op op;
    const double r = rng.next_double();
    op.v = static_cast<NodeId>(rng.next_below(pos.size()));
    if (r < 2.0 / 3.0) {
      op.kind = OpKind::kQuery;
    } else if (r < 5.0 / 6.0) {
      op.kind = OpKind::kMove;
      const rim::geom::Vec2 home = d.points[op.v];
      op.p = {clamp(home.x + rng.uniform(-kNudge, kNudge)),
              clamp(home.y + rng.uniform(-kNudge, kNudge))};
      grid.move(op.v, op.p);
      pos[op.v] = op.p;
    } else {
      op.u = op.v;
      op.v = grid.nearest(pos[op.u], op.u);
      if (op.v == rim::kInvalidNode) continue;
      const std::uint64_t key = edge_key(op.u, op.v);
      if (edges.erase(key) > 0) {
        op.kind = OpKind::kRemoveEdge;
      } else {
        op.kind = OpKind::kAddEdge;
        edges.insert(key);
      }
    }
    ops.push_back(op);
  }
  return ops;
}

/// The serving stack: Service -> TimedHandler -> TcpServer, and one
/// Client per thread over TimedTransport(TcpClientTransport).
struct Stack {
  std::unique_ptr<rim::svc::Service> service;
  std::unique_ptr<TimedHandler> handler;
  std::unique_ptr<rim::svc::TcpServer> server;
  std::vector<std::unique_ptr<TimedTransport>> transports;
  std::vector<std::unique_ptr<rim::svc::Client>> clients;
  std::vector<std::uint64_t> sessions;

  ~Stack() {
    clients.clear();
    transports.clear();
    if (server) server->stop();
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double seed_ms = 0.0;
};

/// Server start plus session seeding, timed. False on any failure.
bool build_stack(Stack& stack, const std::vector<SessionInput>& inputs,
                 SetupTimes& times, std::string& error) {
  const auto t0 = Clock::now();
  stack.service = std::make_unique<rim::svc::Service>(rim::svc::ServiceConfig{});
  stack.handler = std::make_unique<TimedHandler>(*stack.service, Layer::kService);
  stack.server = std::make_unique<rim::svc::TcpServer>(
      *stack.handler, rim::svc::TcpServerConfig{});
  if (!stack.server->start(error)) return false;
  const auto t_seed = Clock::now();
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    auto tcp = std::make_unique<rim::svc::TcpClientTransport>();
    if (!tcp->connect_to("127.0.0.1", stack.server->port(), error)) {
      return false;
    }
    stack.transports.push_back(
        std::make_unique<TimedTransport>(std::move(tcp), Layer::kClientTransport));
    stack.clients.push_back(
        std::make_unique<rim::svc::Client>(*stack.transports.back()));
    rim::svc::Client& client = *stack.clients.back();
    const auto session = client.try_create_session();
    if (!session.has_value()) {
      error = "create_session: " + session.error().message;
      return false;
    }
    stack.sessions.push_back(session.value());
    const auto seeded = client.try_apply_batch(session.value(), inputs[c].seed);
    if (!seeded.has_value()) {
      error = "seed apply_batch: " + seeded.error().message;
      return false;
    }
  }
  const auto t1 = Clock::now();
  times.total_s = seconds_between(t0, t1);
  times.seed_ms = seconds_between(t_seed, t1) * 1e3;
  return true;
}

/// What one client thread did, for the mirror check.
struct ClientRun {
  ClientLog log;
  std::uint64_t session = 0;
  std::uint64_t first_op_id = 0;
  std::size_t executed = 0;          ///< ops sent (warm-up included)
  std::vector<std::uint32_t> answers;  ///< per op: value read / edge changed
  std::vector<std::uint8_t> traced;    ///< per op: sent while tracing
};

void client_loop(rim::svc::Client& client, std::uint64_t session,
                 const std::vector<Op>& ops, const Window& window,
                 ClientRun& run) {
  run.session = session;
  run.first_op_id = client.last_request_id() + 1;
  run.answers.assign(ops.size(), 0);
  run.traced.assign(ops.size(), 0);
  run.log.reserve(ops.size());
  std::size_t i = 0;
  for (; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const bool traced = tracing();
    const auto t0 = Clock::now();
    if (t0 >= window.end) break;
    bool ok = false;
    std::uint32_t answer = 0;
    switch (op.kind) {
      case OpKind::kQuery: {
        const auto r = client.try_query_interference_of(session, op.v);
        ok = r.has_value();
        if (ok) answer = r.value();
        break;
      }
      case OpKind::kMove:
        ok = client.try_move_node(session, op.v, op.p.x, op.p.y).has_value();
        break;
      case OpKind::kAddEdge: {
        const auto r = client.try_add_edge(session, op.u, op.v);
        ok = r.has_value();
        if (ok) answer = r.value() ? 1 : 0;
        break;
      }
      case OpKind::kRemoveEdge: {
        const auto r = client.try_remove_edge(session, op.u, op.v);
        ok = r.has_value();
        if (ok) answer = r.value() ? 1 : 0;
        break;
      }
    }
    const auto t1 = Clock::now();
    ++run.log.attempted;
    if (!ok) run.log.fail(client.error_code() + ": " + client.error());
    run.answers[i] = answer;
    run.traced[i] = traced ? 1 : 0;
    const std::size_t slice = window.slice_of(t0);
    if (ok && slice < window.slices) {
      run.log.record(op.kind == OpKind::kQuery, slice,
                     seconds_between(t0, t1) * 1e6);
    }
  }
  run.executed = i;
}

/// Replays one client's requests on a mirror Scenario and returns how many
/// answers differ from it, the final whole-session answer included. For
/// traced requests it also times the layers below the handler on the same
/// request bytes.
std::uint64_t replay(const SessionInput& input, const ClientRun& run,
                     bool trace, LayerSums& layers, std::uint64_t final_id,
                     const std::string& final_payload) {
  Scenario mirror(rim::core::EvalOptions{});
  (void)mirror.apply_batch(input.seed);
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < run.executed; ++i) {
    const Op& op = input.ops[i];
    const std::uint64_t id = run.first_op_id + i;
    const bool timed = trace && run.traced[i] != 0;
    const bool is_query = op.kind == OpKind::kQuery;
    const std::string cls = is_query ? "query" : "edit";
    if (timed) {
      rim::io::JsonObject params = session_params(run.session);
      params["v"] = rim::io::Json(op.v);
      std::string command = rim::svc::cmd::kQueryInterference;
      if (op.kind == OpKind::kMove) {
        command = rim::svc::cmd::kMove;
        params["x"] = rim::io::Json(op.p.x);
        params["y"] = rim::io::Json(op.p.y);
      } else if (!is_query) {
        command = op.kind == OpKind::kAddEdge ? rim::svc::cmd::kAddEdge
                                              : rim::svc::cmd::kRemoveEdge;
        params["u"] = rim::io::Json(op.u);
      }
      const std::string payload = request_payload(command, id, std::move(params));
      rim::io::Json doc;
      std::string error;
      const auto t0 = Clock::now();
      (void)rim::io::Json::parse(payload, doc, error);
      layers.add("codec.parse_us." + cls, seconds_between(t0, Clock::now()) * 1e6);
    }
    const auto t0 = Clock::now();
    std::uint32_t expected = 0;
    switch (op.kind) {
      case OpKind::kQuery:
        expected = mirror.interference_of(op.v);
        break;
      case OpKind::kMove:
        mirror.move_node(op.v, op.p);
        break;
      case OpKind::kAddEdge:
        expected = mirror.add_edge(op.u, op.v) ? 1 : 0;
        break;
      case OpKind::kRemoveEdge:
        expected = mirror.remove_edge(op.u, op.v) ? 1 : 0;
        break;
    }
    const double engine_us = seconds_between(t0, Clock::now()) * 1e6;
    if (expected != run.answers[i]) ++wrong;
    if (!timed) continue;
    layers.add(is_query ? "scenario.query_us" : "scenario.point_op_us",
               engine_us);
    const auto t1 = Clock::now();
    if (is_query) {
      (void)rim::svc::make_ok(id, query_one_result(op.v, expected));
    } else {
      const char* key = op.kind == OpKind::kMove      ? "moved"
                        : op.kind == OpKind::kAddEdge ? "added"
                                                      : "removed";
      rim::io::JsonObject result;
      result[key] = rim::io::Json(op.kind == OpKind::kMove || expected != 0);
      (void)rim::svc::make_ok(id, rim::io::Json(std::move(result)));
    }
    layers.add("codec.dump_us." + cls, seconds_between(t1, Clock::now()) * 1e6);
  }
  if (rim::svc::make_ok(final_id, query_all_result(mirror)) != final_payload) {
    ++wrong;
  }
  return wrong;
}

}  // namespace

Report run_point_edits(const RunOptions& options) {
  Report report;
  const double warmup = warmup_seconds(options.seconds);
  const auto op_budget = static_cast<std::size_t>(
      (options.seconds + warmup + 1.0) * kMaxOpsPerSecond);

  std::vector<SessionInput> inputs(kClients);
  std::vector<double> deploy_ms;
  std::vector<double> topology_ms;
  std::vector<double> seed_ms;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // Deployment and topology are part of set-up; the request streams are
    // benchmark inputs, generated once and outside every timed span.
    double rep_deploy = 0.0;
    double rep_topology = 0.0;
    for (std::size_t c = 0; c < kClients; ++c) {
      inputs[c].deployment =
          make_deployment(kNodes, kDensity, derive_seed(options.seed, c));
      inputs[c].seed = seed_batch(inputs[c].deployment);
      rep_deploy += inputs[c].deployment.deploy_ms;
      rep_topology += inputs[c].deployment.topology_ms;
    }
    stack.reset();
    stack = std::make_unique<Stack>();
    SetupTimes times;
    std::string error;
    if (!build_stack(*stack, inputs, times, error)) {
      report.fail_check("set-up: " + error);
      return report;
    }
    deploy_ms.push_back(rep_deploy);
    topology_ms.push_back(rep_topology);
    seed_ms.push_back(times.seed_ms);
    setup_s.push_back(times.total_s + (rep_deploy + rep_topology) / 1e3);
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    inputs[c].ops = make_ops(inputs[c].deployment, op_budget,
                             derive_seed(options.seed, 100 + c));
  }
  report.note("inputs: seed " + std::to_string(options.seed) + ", " +
              std::to_string(kClients) + " TCP clients, 1 session each of " +
              std::to_string(kNodes) + " nodes (NNF, density 12.5), " +
              "single-command requests (batch size 1)");

  std::vector<ClientRun> runs(kClients);
  std::vector<double> steal;
  const Window measured = make_window(warmup, options.seconds, kSlices, options.trace);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(*stack->clients[c], stack->sessions[c], inputs[c].ops,
                    measured, runs[c]);
      });
    }
    std::this_thread::sleep_until(measured.start);
    steal = drive_window(measured, options.trace);
    for (std::thread& t : threads) t.join();
  }

  // --- output checks (outside the window) ---
  std::vector<std::string> finals(kClients);
  std::vector<std::uint64_t> final_ids(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    ++runs[c].log.attempted;
    if (!stack->clients[c]->try_query_interference(stack->sessions[c]).has_value()) {
      runs[c].log.fail("final query_interference failed");
    }
    finals[c] = stack->clients[c]->last_response_payload();
    final_ids[c] = stack->clients[c]->last_request_id();
    if (runs[c].executed == inputs[c].ops.size()) {
      report.note("client " + std::to_string(c) +
                  " exhausted its precomputed requests before the window ended");
    }
  }
  const std::uint64_t shed = stack->handler->shed();
  const std::uint64_t handled = stack->handler->handled();
  const std::vector<Span> spans = options.trace ? collect_spans() : std::vector<Span>{};
  stack.reset();

  LayerSums layers;
  std::uint64_t wrong = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::uint64_t client_wrong = replay(
        inputs[c], runs[c], options.trace, layers, final_ids[c], finals[c]);
    if (client_wrong > 0) {
      report.fail_check("client " + std::to_string(c) + ": " +
                        std::to_string(client_wrong) +
                        " answers differ from the mirror scenario");
    }
    wrong += client_wrong;
  }

  std::size_t reads = 0;
  std::size_t edits = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    report.attempted += runs[c].log.attempted;
    report.failed += runs[c].log.failed;
    if (!runs[c].log.first_error.empty()) {
      report.fail_check("client " + std::to_string(c) + " request failed: " +
                        runs[c].log.first_error);
    }
    for (std::size_t i = 0; i < runs[c].executed; ++i) {
      (inputs[c].ops[i].kind == OpKind::kQuery ? reads : edits) += 1;
    }
  }
  report.failed += wrong;
  report.note("requests by class: query_interference " + std::to_string(reads) +
              ", move/add_edge/remove_edge " + std::to_string(edits));

  std::vector<ClientLog> logs;
  for (ClientRun& r : runs) logs.push_back(std::move(r.log));
  report_serving(report, logs, measured, steal, median(setup_s));
  report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

  if (options.trace) {
    auto& L = report.per_layer;
    const SpanMeans client = span_means(spans, Layer::kClientTransport);
    const SpanMeans service = span_means(spans, Layer::kService);
    L["transport.roundtrip_us"] = {client.mean_us(), "us"};
    L["transport.self_us"] = {client.mean_us() - service.mean_us(), "us"};
    L["transport.req_bytes"] = {client.mean_req_bytes(), "B"};
    L["transport.resp_bytes"] = {client.mean_resp_bytes(), "B"};
    for (const Cls cls : {Cls::kQuery, Cls::kEdit}) {
      const std::string name = class_name(cls);
      const double handle = span_means(spans, Layer::kService, cls).mean_us();
      L["service.handle_us." + name] = {handle, "us"};
      const char* engine = cls == Cls::kQuery ? "scenario.query_us"
                                              : "scenario.point_op_us";
      L["service.self_us." + name] = {handle - layers.mean(engine), "us"};
      L["codec.parse_us." + name] = {layers.mean("codec.parse_us." + name), "us"};
      L["codec.dump_us." + name] = {layers.mean("codec.dump_us." + name), "us"};
    }
    L["service.shed_frac"] = {
        handled + shed == 0 ? 0.0
                            : static_cast<double>(shed) /
                                  static_cast<double>(handled + shed),
        "ratio"};
    L["scenario.query_us"] = {layers.mean("scenario.query_us"), "us"};
    L["scenario.point_op_us"] = {layers.mean("scenario.point_op_us"), "us"};
    L["setup.deploy_ms"] = {median(deploy_ms), "ms"};
    L["setup.topology_ms"] = {median(topology_ms), "ms"};
    L["setup.seed_ms"] = {median(seed_ms), "ms"};
    L["trace.overhead_frac"] = {tracing_overhead(logs), "ratio"};
    write_span_dump(report, spans, options);
  }
  return report;
}

}  // namespace perfbench
