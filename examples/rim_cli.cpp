/// rim_cli — command-line front end to librim, for pipeline use.
///
///   rim_cli generate  --kind uniform --n 200 --side 4 --seed 1 > points.csv
///   rim_cli topology  --algorithm mst --points points.csv > edges.csv
///   rim_cli interference --points points.csv --edges edges.csv
///                        [--strategy brute|grid|parallel|auto] [--json]
///   rim_cli survey    --points points.csv
///   rim_cli schedule  --points points.csv --edges edges.csv [--model disk|sinr]
///   rim_cli route     --points points.csv --edges edges.csv --from 0 --to 7
///   rim_cli serve     --port 7421 --max-sessions 64
///   rim_cli client    --port 7421 --demo --shutdown
///   rim_cli router    --port 7420 --backends 127.0.0.1:7421,127.0.0.1:7422
///   rim_cli shard-status --port 7420
///
/// All data flows through the CSV formats of rim/io/csv.hpp, so results can
/// be piped to external plotting tools. `serve`/`client` speak the rim::svc
/// wire protocol (DESIGN.md §9) over localhost TCP; `router` fronts N
/// `serve` backends with the consistent-hash shard tier (DESIGN.md §14) —
/// clients talk to it with the exact same protocol.

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "rim/core/assessor.hpp"
#include "rim/core/interference.hpp"
#include "rim/core/sender_centric.hpp"
#include "rim/graph/connectivity.hpp"
#include "rim/graph/stretch.hpp"
#include "rim/graph/udg.hpp"
#include "rim/highway/highway_instance.hpp"
#include "rim/io/csv.hpp"
#include "rim/io/json.hpp"
#include "rim/io/table.hpp"
#include "rim/phy/scheduling.hpp"
#include "rim/routing/geographic.hpp"
#include "rim/shard/router.hpp"
#include "rim/sim/adversarial.hpp"
#include "rim/sim/generators.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/tcp.hpp"
#include "rim/topology/registry.hpp"

namespace {

using namespace rim;

/// Simple --key value argument map.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) key = key.substr(2);
      // `--key value` pair unless the next token is another option (or
      // missing) — then a bare flag like --json or --shutdown. Negative
      // numbers ("-0.2") are values: only "--" marks an option.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[i + 1];
        ++i;
      } else {
        values_[key] = "true";
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return values_.count(key) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

geom::PointSet load_points(const Args& args) {
  const std::string path = args.get("points");
  if (path.empty()) throw std::runtime_error("--points <file> is required");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return io::read_points_csv(in);
}

graph::Graph load_edges(const Args& args, std::size_t n) {
  const std::string path = args.get("edges");
  if (path.empty()) throw std::runtime_error("--edges <file> is required");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return io::read_edges_csv(in, n);
}

int cmd_generate(const Args& args) {
  const std::string kind = args.get("kind", "uniform");
  const auto n = static_cast<std::size_t>(args.num("n", 100));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  geom::PointSet points;
  if (kind == "uniform") {
    points = sim::uniform_square(n, args.num("side", 3.0), seed);
  } else if (kind == "clustered") {
    points = sim::gaussian_clusters(
        n, static_cast<std::size_t>(args.num("clusters", 4)),
        args.num("side", 3.0), args.num("stddev", 0.2), seed);
  } else if (kind == "highway") {
    points = sim::uniform_highway(n, args.num("length", 10.0), seed).to_points();
  } else if (kind == "expchain") {
    points = highway::exponential_chain(n).to_points();
  } else if (kind == "figure1") {
    points = sim::figure1_instance(n, seed);
  } else if (kind == "twochains") {
    points = sim::two_exponential_chains(n).points;
  } else {
    std::cerr << "unknown --kind '" << kind
              << "' (uniform|clustered|highway|expchain|figure1|twochains)\n";
    return 1;
  }
  io::write_points_csv(std::cout, points);
  return 0;
}

int cmd_topology(const Args& args) {
  const geom::PointSet points = load_points(args);
  const std::string name = args.get("algorithm", "mst");
  const auto* algorithm = topology::find_algorithm(name);
  if (algorithm == nullptr) {
    std::cerr << "unknown --algorithm '" << name << "'; available:";
    for (const auto& a : topology::all_algorithms()) std::cerr << ' ' << a.name;
    std::cerr << '\n';
    return 1;
  }
  const graph::Graph udg = graph::build_udg(points, args.num("radius", 1.0));
  io::write_edges_csv(std::cout, algorithm->build(points, udg));
  return 0;
}

/// --strategy brute|grid|parallel|auto (default auto), assembled through
/// the EvalOptions builder so the CLI shares the core defaults verbatim.
core::EvalOptions parse_eval_options(const Args& args) {
  const std::string name = args.get("strategy", "auto");
  core::Strategy strategy = core::Strategy::kAuto;
  if (name == "brute") {
    strategy = core::Strategy::kBrute;
  } else if (name == "grid") {
    strategy = core::Strategy::kGrid;
  } else if (name == "parallel") {
    strategy = core::Strategy::kParallel;
  } else if (name != "auto") {
    throw std::runtime_error("unknown --strategy '" + name +
                             "' (brute|grid|parallel|auto)");
  }
  return core::EvalOptions{}.with_strategy(strategy);
}

int cmd_interference(const Args& args) {
  const geom::PointSet points = load_points(args);
  const graph::Graph topo = load_edges(args, points.size());
  const core::InterferenceSummary recv =
      core::Assessor(parse_eval_options(args)).assess(topo, points);
  const core::SenderCentricSummary send = core::evaluate_sender_centric(topo, points);
  if (args.flag("json")) {
    io::JsonObject object;
    object["nodes"] = io::Json(points.size());
    object["edges"] = io::Json(topo.edge_count());
    object["receiver_max"] = io::Json(recv.max);
    object["receiver_mean"] = io::Json(recv.mean);
    object["sender_max"] = io::Json(send.max);
    io::JsonArray per_node;
    for (std::uint32_t i : recv.per_node) per_node.emplace_back(i);
    object["receiver_per_node"] = io::Json(per_node);
    io::Json(object).write(std::cout);
    std::cout << '\n';
  } else {
    std::cout << "nodes " << points.size() << ", edges " << topo.edge_count()
              << "\nreceiver-centric I(G') = " << recv.max
              << " (mean " << recv.mean << ")\nsender-centric max coverage = "
              << send.max << '\n';
  }
  return 0;
}

int cmd_survey(const Args& args) {
  const geom::PointSet points = load_points(args);
  const graph::Graph udg = graph::build_udg(points, args.num("radius", 1.0));
  io::Table table({"algorithm", "I recv", "I send", "deg", "edges", "connected"});
  for (const auto& algorithm : topology::all_algorithms()) {
    const graph::Graph topo = algorithm.build(points, udg);
    table.row()
        .cell(algorithm.name)
        .cell(core::graph_interference(topo, points))
        .cell(core::evaluate_sender_centric(topo, points).max)
        .cell(static_cast<std::uint64_t>(topo.max_degree()))
        .cell(static_cast<std::uint64_t>(topo.edge_count()))
        .cell(graph::preserves_connectivity(udg, topo));
  }
  table.print(std::cout);
  return 0;
}

int cmd_schedule(const Args& args) {
  const std::string model = args.get("model", "disk");
  if (model != "disk" && model != "sinr") {
    std::cerr << "unknown --model '" << model << "' (disk|sinr)\n";
    return 1;
  }
  const geom::PointSet points = load_points(args);
  const graph::Graph topo = load_edges(args, points.size());
  const phy::Schedule schedule =
      model == "sinr" ? phy::schedule_links_sinr(topo, points)
                      : phy::schedule_links_disk(topo, points);
  std::cout << "model " << model << ": " << schedule.scheduled_links()
            << " links in " << schedule.length() << " slots\n";
  for (std::size_t k = 0; k < schedule.slots.size(); ++k) {
    std::cout << "slot " << k << ":";
    for (graph::Edge e : schedule.slots[k]) {
      std::cout << ' ' << e.u << "->" << e.v;
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_route(const Args& args) {
  const geom::PointSet points = load_points(args);
  const graph::Graph topo = load_edges(args, points.size());
  const auto from = static_cast<NodeId>(args.num("from", 0));
  const auto to = static_cast<NodeId>(
      args.num("to", static_cast<double>(points.size() - 1)));
  const routing::RouteResult r = routing::gfg_route(points, topo, from, to);
  std::cout << (r.delivered ? "delivered" : "FAILED") << " in " << r.hops()
            << " hops (" << r.greedy_hops << " greedy + " << r.perimeter_hops
            << " perimeter)\npath:";
  for (NodeId v : r.path) std::cout << ' ' << v;
  std::cout << '\n';
  return r.delivered ? 0 : 2;
}

// ---------------------------------------------------------------------------
// serve / client: the rim::svc wire protocol over localhost TCP.

/// The front end (serve or router) that SIGINT/SIGTERM stop. A lock-free
/// atomic, so the handler does only async-signal-safe work: one load and
/// Frontend::request_shutdown()'s one store.
std::atomic<svc::Frontend*> g_stoppable{nullptr};
static_assert(std::atomic<svc::Frontend*>::is_always_lock_free);

void handle_stop_signal(int) {
  svc::Frontend* frontend = g_stoppable.load();
  if (frontend != nullptr) frontend->request_shutdown();
}

/// Route SIGINT/SIGTERM to \p frontend's shutdown flag (nullptr: ignore).
void stop_on_signals(svc::Frontend* frontend) {
  g_stoppable.store(frontend);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// `rim_cli serve --port N --max-sessions K [--max-live L]
///  [--max-in-flight F] [--spill-dir DIR]` — serve sessions until
/// SIGINT/SIGTERM or a wire `shutdown` command, then stop cleanly (joining
/// every thread). Each connection is served on its own reader thread.
int cmd_serve(const Args& args) {
  svc::ServiceConfig config;
  config.limits.max_sessions =
      static_cast<std::size_t>(args.num("max-sessions", 64));
  config.limits.max_live_sessions = static_cast<std::size_t>(
      args.num("max-live", double(config.limits.max_live_sessions)));
  config.limits.max_in_flight = static_cast<std::size_t>(
      args.num("max-in-flight", double(config.limits.max_in_flight)));
  config.limits.spill_dir = args.get("spill-dir");
  config.allow_shutdown = true;

  svc::Service service(config);
  svc::TcpServerConfig tcp;
  tcp.port = static_cast<std::uint16_t>(args.num("port", 7421));
  svc::TcpServer server(service, tcp);
  std::string error;
  if (!server.start(error)) {
    std::cerr << "serve: " << error << '\n';
    return 1;
  }
  stop_on_signals(&service);
  std::cout << "rim_cli serve: listening on 127.0.0.1:" << server.port()
            << " (max " << config.limits.max_sessions << " sessions, "
            << config.limits.max_live_sessions << " live)" << std::endl;
  service.wait_shutdown();
  server.stop();
  stop_on_signals(nullptr);
  const svc::FrontendCounters& c = service.frontend_counters();
  std::cout << "rim_cli serve: clean shutdown after " << c.requests.value()
            << " requests (" << c.ok.value() << " ok, " << c.errors.value()
            << " errors, " << c.rejected_overloaded.value() << " shed)\n";
  return 0;
}

/// `rim_cli router --port N --backends host:port[,host:port...]
///  [--vnodes V] [--ship-every K] [--health-interval-ms M]
///  [--exchange-deadline-ms D] [--probe-deadline-ms P]` —
/// front the listed `serve` backends with the consistent-hash shard tier
/// (DESIGN.md §14): clients speak the unchanged wire protocol to this
/// port; sessions are placed on the ring, replicated to their peer shard
/// every K mutating commands, and transparently failed over when a
/// backend dies. Health probes run on a dedicated connection with a short
/// deadline (--probe-deadline-ms, default 2000) so a wedged backend is
/// detected; forwards block with no deadline by default
/// (--exchange-deadline-ms 0) — a slow million-node apply_batch is not a
/// dead backend.
int cmd_router(const Args& args) {
  const std::string backends = args.get("backends");
  if (backends.empty()) {
    std::cerr << "router: --backends host:port[,host:port...] is required\n";
    return 1;
  }
  shard::RouterConfig config;
  const auto forward_deadline =
      static_cast<std::uint32_t>(args.num("exchange-deadline-ms", 0));
  const auto probe_deadline =
      static_cast<std::uint32_t>(args.num("probe-deadline-ms", 2000));
  const auto make_connect = [](const std::string& host, std::uint16_t port,
                               std::uint32_t deadline_ms) {
    return [host, port, deadline_ms]() -> std::unique_ptr<svc::Transport> {
      auto transport = std::make_unique<svc::TcpClientTransport>();
      transport->exchange_deadline_ms = deadline_ms;
      std::string error;
      if (!transport->connect_to(host, port, error)) return nullptr;
      return transport;
    };
  };
  std::stringstream list(backends);
  std::string endpoint;
  while (std::getline(list, endpoint, ',')) {
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "router: backend '" << endpoint << "' is not host:port\n";
      return 1;
    }
    const std::string host = endpoint.substr(0, colon);
    const auto port =
        static_cast<std::uint16_t>(std::stoul(endpoint.substr(colon + 1)));
    config.backends.push_back({endpoint,
                               make_connect(host, port, forward_deadline),
                               make_connect(host, port, probe_deadline)});
  }
  config.vnodes = static_cast<std::size_t>(args.num("vnodes", 64));
  config.replication.ship_every =
      static_cast<std::size_t>(args.num("ship-every", 1));
  config.health_interval_ms =
      static_cast<std::uint64_t>(args.num("health-interval-ms", 200));
  config.allow_shutdown = true;

  shard::Router router(std::move(config));
  svc::TcpServerConfig tcp;
  tcp.port = static_cast<std::uint16_t>(args.num("port", 7420));
  svc::TcpServer server(router, tcp);
  std::string error;
  if (!server.start(error)) {
    std::cerr << "router: " << error << '\n';
    return 1;
  }
  router.start_health_monitor();
  stop_on_signals(&router);
  std::cout << "rim_cli router: listening on 127.0.0.1:" << server.port()
            << " over " << router.config().backends.size() << " backends"
            << std::endl;
  router.wait_shutdown();
  server.stop();
  router.stop();
  stop_on_signals(nullptr);
  const svc::FrontendCounters& front = router.frontend_counters();
  const shard::RouterCounters& c = router.counters();
  std::cout << "rim_cli router: clean shutdown after "
            << front.requests.value() << " requests (" << front.ok.value()
            << " ok, " << front.errors.value() << " errors, "
            << c.failovers.value() << " failovers, "
            << c.sessions_moved.value() << " sessions moved, "
            << c.lost_sessions.value() << " lost)\n";
  return 0;
}

/// `rim_cli shard-status --port N [--host H]` — asks a router for its
/// shard_status document and prints it plus a grep-friendly summary.
int cmd_shard_status(const Args& args) {
  svc::TcpClientTransport transport;
  std::string error;
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.num("port", 7420));
  if (!transport.connect_to(host, port, error)) {
    std::cerr << "shard-status: " << error << '\n';
    return 1;
  }
  io::JsonObject request;
  request["cmd"] = io::Json("shard_status");
  request["id"] = io::Json(std::uint64_t{1});
  std::string response_frame;
  if (transport.roundtrip(svc::encode_frame(io::Json(std::move(request)).dump()),
                          response_frame, error) != svc::TransportStatus::kOk) {
    std::cerr << "shard-status: " << error << '\n';
    return 1;
  }
  std::size_t consumed = 0;
  std::string payload;
  if (svc::try_decode_frame(response_frame, 1u << 26, consumed, payload) !=
      svc::FrameStatus::kFrame) {
    std::cerr << "shard-status: bad response frame\n";
    return 1;
  }
  io::Json document;
  if (!io::Json::parse(payload, document, error)) {
    std::cerr << "shard-status: " << error << '\n';
    return 1;
  }
  std::cout << payload << '\n';
  const io::Json* result = document.find("result");
  if (result != nullptr) {
    const auto field = [&](const char* key) -> std::uint64_t {
      const io::Json* value = result->find(key);
      return value != nullptr
                 ? static_cast<std::uint64_t>(value->as_number(0.0))
                 : 0;
    };
    std::cout << "shard-status: sessions=" << field("sessions")
              << " moved=" << field("sessions_moved")
              << " lost=" << field("lost_sessions")
              << " failovers=" << field("failovers") << '\n';
  }
  return 0;
}

/// `rim_cli client --port N [--host H] [--demo [--keep]] [--touch K]
///  [--shutdown]` — pings the server; with --demo drives one session of
/// topology churn through the wire and prints the interference answer
/// (--keep leaves the session open for later --touch probes); --touch K
/// re-queries sessions 1..K — after a backend kill this is the
/// transparent-restore check; with --shutdown stops the server
/// afterwards.
int cmd_client(const Args& args) {
  svc::TcpClientTransport transport;
  std::string error;
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.num("port", 7421));
  if (!transport.connect_to(host, port, error)) {
    std::cerr << "client: " << error << '\n';
    return 1;
  }
  svc::Client client(transport);
  if (const svc::SvcResult<void> pong = client.try_ping(); !pong.has_value()) {
    std::cerr << "client: ping failed: " << pong.error().message << '\n';
    return 1;
  }
  std::cout << "client: ping ok (" << host << ':' << port << ")\n";

  if (args.flag("demo")) {
    const svc::SvcResult<std::uint64_t> opened = client.try_create_session();
    if (!opened.has_value()) {
      std::cerr << "client: create_session: " << opened.error().message << '\n';
      return 1;
    }
    const std::uint64_t session = opened.value();
    const std::vector<core::Mutation> batch = {
        core::Mutation::add_node({0.0, 0.0}),
        core::Mutation::add_node({1.0, 0.0}),
        core::Mutation::add_node({0.5, 0.8}),
        core::Mutation::add_node({2.25, 0.5}),
        core::Mutation::add_edge(0, 1),
        core::Mutation::add_edge(1, 2),
        core::Mutation::add_edge(0, 2),
        core::Mutation::add_edge(1, 3),
    };
    const svc::SvcResult<core::BatchResult> applied =
        client.try_apply_batch(session, batch);
    if (!applied.has_value()) {
      std::cerr << "client: apply_batch: " << applied.error().message << '\n';
      return 1;
    }
    const svc::SvcResult<io::Json> interference =
        client.try_query_interference(session);
    if (!interference.has_value()) {
      std::cerr << "client: query_interference: " << interference.error().message
                << '\n';
      return 1;
    }
    std::cout << "client: session " << session << " applied "
              << applied.value().applied << " mutations; interference ";
    interference.value().write(std::cout);
    std::cout << '\n';
    if (args.flag("keep")) {
      std::cout << "client: session " << session << " kept open\n";
    } else if (const svc::SvcResult<void> closed =
                   client.try_close_session(session);
               !closed.has_value()) {
      std::cerr << "client: close_session: " << closed.error().message << '\n';
      return 1;
    }
  }
  if (const auto touch = static_cast<std::uint64_t>(args.num("touch", 0));
      touch > 0) {
    // Re-query sessions 1..K (wire ids are allocated from 1): each answer
    // proves the session's state survived — when a backend was killed in
    // between, that its replica was adopted and replayed transparently.
    std::uint64_t answered = 0;
    for (std::uint64_t session = 1; session <= touch; ++session) {
      const svc::SvcResult<io::Json> interference =
          client.try_query_interference(session);
      if (!interference.has_value()) {
        std::cerr << "client: touch session " << session << ": "
                  << interference.error().message << '\n';
        continue;
      }
      const io::Json* total = interference.value().find("total");
      std::cout << "client: session " << session << " interference total="
                << (total != nullptr
                        ? static_cast<std::uint64_t>(total->as_number(0.0))
                        : 0)
                << '\n';
      ++answered;
    }
    std::cout << "client: transparent restore check: " << answered << "/"
              << touch << " sessions answered\n";
    if (answered != touch) return 1;
  }
  if (args.flag("shutdown")) {
    if (const svc::SvcResult<void> down = client.try_shutdown();
        !down.has_value()) {
      std::cerr << "client: shutdown: " << down.error().message << '\n';
      return 1;
    }
    std::cout << "client: server shutdown acknowledged\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: rim_cli "
                 "<generate|topology|interference|survey|schedule|route"
                 "|serve|client|router|shard-status> [--key value ...]\n";
    return 1;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "topology") return cmd_topology(args);
    if (command == "interference") return cmd_interference(args);
    if (command == "survey") return cmd_survey(args);
    if (command == "schedule") return cmd_schedule(args);
    if (command == "route") return cmd_route(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "client") return cmd_client(args);
    if (command == "router") return cmd_router(args);
    if (command == "shard-status") return cmd_shard_status(args);
    std::cerr << "unknown command '" << command << "'\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
