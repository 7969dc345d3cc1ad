/// Workload routed_churn: a shard::Router at rim_cli router defaults
/// (ship_every 1, 64 vnodes, health monitor on) in front of four in-process
/// svc::Service backends over LoopbackTransport, as E24 builds them. Four
/// closed-loop client threads call the router over loopback; each owns four
/// sessions of 4,096 nodes seeded from a nearest-neighbour forest. A session
/// cycle is an apply_batch of 32 spatially local mutations (LocalTrace, as
/// E19/E22 use), a whole-session query_interference, and an assess of a
/// four-move local what-if. Only this workload exercises the router and the
/// replicator: every acked apply_batch ships a full snapshot to the peer.

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_map>

#include "local_trace.hpp"
#include "rim/core/assessor.hpp"
#include "rim/core/snapshot.hpp"
#include "rim/shard/router.hpp"
#include "rim/sim/rng.hpp"
#include "rim/svc/client.hpp"
#include "rim/svc/protocol.hpp"
#include "rim/svc/service.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rim::NodeId;
using rim::core::Mutation;
using rim::core::Scenario;

constexpr std::size_t kClients = 4;
constexpr std::size_t kSessionsPerClient = 4;
constexpr std::size_t kBackends = 4;
constexpr std::size_t kNodes = 4096;
constexpr double kDensity = 12.5;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kWhatIfMoves = 4;
constexpr double kWhatIfNudge = 0.4;
constexpr int kSetupRepeats = 5;
/// Sub-windows of the measured window (serving.hpp).
constexpr std::size_t kSlices = 8;
/// Generous ceiling on cycles one session completes per second.
constexpr double kMaxCyclesPerSecond = 40.0;

struct Cycle {
  std::vector<Mutation> batch;
  std::vector<Mutation> whatif;
};

struct SessionInput {
  Deployment deployment;
  std::vector<Mutation> seed;
  std::vector<Cycle> cycles;
};

/// Batches from LocalTrace; the what-if nudges four random nodes of the
/// state the batch leaves behind (positions tracked through renames).
std::vector<Cycle> make_cycles(const Deployment& d, std::size_t count,
                               std::uint64_t seed) {
  rim::bench::LocalTrace trace(d.points, d.side, seed);
  rim::sim::Rng rng(derive_seed(seed, 1));
  std::vector<rim::geom::Vec2> pos = d.points;
  std::vector<Cycle> cycles(count);
  for (Cycle& cycle : cycles) {
    cycle.batch = trace.next_batch(kBatch);
    for (const Mutation& m : cycle.batch) {
      if (m.kind == Mutation::Kind::kAddNode) {
        pos.push_back(m.position);
      } else if (m.kind == Mutation::Kind::kRemoveNode) {
        pos[m.v] = pos.back();
        pos.pop_back();
      } else if (m.kind == Mutation::Kind::kMoveNode) {
        pos[m.v] = m.position;
      }
    }
    for (std::size_t i = 0; i < kWhatIfMoves; ++i) {
      const auto v = static_cast<NodeId>(rng.next_below(pos.size()));
      const rim::geom::Vec2 p{
          std::clamp(pos[v].x + rng.uniform(-kWhatIfNudge, kWhatIfNudge), 0.0,
                     d.side),
          std::clamp(pos[v].y + rng.uniform(-kWhatIfNudge, kWhatIfNudge), 0.0,
                     d.side)};
      cycle.whatif.push_back(Mutation::move_node(v, p));
    }
  }
  return cycles;
}

/// Four Services, the Router over them, and one Client per thread. Member
/// order is destruction order reversed: clients go first, services last.
struct Cluster {
  std::vector<std::unique_ptr<rim::svc::Service>> services;
  std::vector<std::unique_ptr<TimedHandler>> backends;
  std::unique_ptr<rim::shard::Router> router;
  std::unique_ptr<TimedHandler> front;
  std::vector<std::unique_ptr<TimedTransport>> transports;
  std::vector<std::unique_ptr<rim::svc::Client>> clients;
  /// sessions[c][s]: wire id of client c's s-th session.
  std::vector<std::vector<std::uint64_t>> sessions;

  ~Cluster() {
    clients.clear();
    transports.clear();
    front.reset();
    if (router) router->stop();
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double seed_ms = 0.0;
};

bool build_cluster(Cluster& cluster, const std::vector<SessionInput>& inputs,
                   SetupTimes& times, std::string& error) {
  const auto t0 = Clock::now();
  rim::shard::RouterConfig config;
  for (std::size_t b = 0; b < kBackends; ++b) {
    cluster.services.push_back(
        std::make_unique<rim::svc::Service>(rim::svc::ServiceConfig{}));
    cluster.backends.push_back(std::make_unique<TimedHandler>(
        *cluster.services.back(), Layer::kService));
    TimedHandler* handler = cluster.backends.back().get();
    const auto index = static_cast<std::uint16_t>(b);
    const auto connect = [handler, index]() -> std::unique_ptr<rim::svc::Transport> {
      return std::make_unique<TimedTransport>(
          std::make_unique<rim::svc::LoopbackTransport>(*handler),
          Layer::kBackendTransport, index);
    };
    config.backends.push_back({"shard-" + std::to_string(b), connect, connect});
  }
  config.vnodes = 64;
  config.replication.ship_every = 1;
  cluster.router = std::make_unique<rim::shard::Router>(std::move(config));
  cluster.router->start_health_monitor();
  cluster.front = std::make_unique<TimedHandler>(*cluster.router, Layer::kRouter);
  const auto t_seed = Clock::now();
  cluster.sessions.assign(kClients, {});
  for (std::size_t c = 0; c < kClients; ++c) {
    cluster.transports.push_back(std::make_unique<TimedTransport>(
        std::make_unique<rim::svc::LoopbackTransport>(*cluster.front),
        Layer::kClientTransport));
    cluster.clients.push_back(
        std::make_unique<rim::svc::Client>(*cluster.transports.back()));
    rim::svc::Client& client = *cluster.clients.back();
    for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
      const auto session = client.try_create_session();
      if (!session.has_value()) {
        error = "create_session: " + session.error().message;
        return false;
      }
      cluster.sessions[c].push_back(session.value());
      const auto seeded = client.try_apply_batch(
          session.value(), inputs[c * kSessionsPerClient + s].seed);
      if (!seeded.has_value()) {
        error = "seed apply_batch: " + seeded.error().message;
        return false;
      }
    }
  }
  const auto t1 = Clock::now();
  times.total_s = seconds_between(t0, t1);
  times.seed_ms = seconds_between(t_seed, t1) * 1e3;
  return true;
}

/// The wire outcome of one session cycle, for the mirror check.
struct CycleRecord {
  std::uint64_t batch_id = 0;
  std::uint64_t query_id = 0;
  std::uint64_t assess_id = 0;
  rim::core::BatchResult batch;
  std::uint64_t query_hash = 0;
  std::uint64_t assess_hash = 0;
  bool traced = false;  ///< all three requests were sent while tracing
};

struct SessionRun {
  std::uint64_t session = 0;
  std::vector<CycleRecord> cycles;  ///< one per executed cycle
};

struct ClientRun {
  ClientLog log;
  std::size_t read_requests = 0;
  std::size_t mutate_requests = 0;
};

void client_loop(rim::svc::Client& client,
                 const std::vector<std::uint64_t>& sessions,
                 const SessionInput* inputs, const Window& window,
                 SessionRun* session_runs, ClientRun& run) {
  const std::size_t cycles = inputs[0].cycles.size();
  for (std::size_t k = 0; k < cycles; ++k) {
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      if (Clock::now() >= window.end) return;
      const Cycle& cycle = inputs[s].cycles[k];
      const std::uint64_t sid = sessions[s];
      CycleRecord record;
      bool all_traced = true;
      const auto timed = [&](bool is_read, auto&& call) {
        all_traced = all_traced && tracing();
        const auto t0 = Clock::now();
        const bool ok = call();
        const auto t1 = Clock::now();
        const std::size_t slice = window.slice_of(t0);
        ++run.log.attempted;
        if (!ok) {
          run.log.fail(client.error_code() + ": " + client.error());
        } else if (slice < window.slices) {
          run.log.record(is_read, slice, seconds_between(t0, t1) * 1e6);
        }
        ++(is_read ? run.read_requests : run.mutate_requests);
        return ok;
      };
      (void)timed(false, [&] {
        const auto r = client.try_apply_batch(sid, cycle.batch);
        if (r.has_value()) record.batch = r.value();
        return r.has_value();
      });
      record.batch_id = client.last_request_id();
      (void)timed(true, [&] {
        const bool ok = client.try_query_interference(sid).has_value();
        record.query_hash = fnv1a(client.last_response_payload());
        return ok;
      });
      record.query_id = client.last_request_id();
      (void)timed(true, [&] {
        const bool ok = client.try_assess(sid, cycle.whatif).has_value();
        record.assess_hash = fnv1a(client.last_response_payload());
        return ok;
      });
      record.assess_id = client.last_request_id();
      record.traced = all_traced;
      session_runs[s].cycles.push_back(record);
    }
  }
}

bool same_batch(const rim::core::BatchResult& a, const rim::core::BatchResult& b) {
  return a.applied == b.applied && a.disk_tasks == b.disk_tasks &&
         a.recounts == b.recounts && a.waves == b.waves &&
         a.deferred == b.deferred;
}

double us_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e6;
}

/// Replays one session on a mirror Scenario: checks every answer, and for
/// traced cycles times the layers below the handler on the same inputs.
std::uint64_t replay(const SessionInput& input, const SessionRun& run,
                     bool trace, LayerSums& layers, std::uint64_t final_id,
                     const std::string& final_payload) {
  Scenario mirror(rim::core::EvalOptions{});
  (void)mirror.apply_batch(input.seed);
  std::uint64_t wrong = 0;
  const rim::core::Assessor assessor;
  for (std::size_t k = 0; k < run.cycles.size(); ++k) {
    const Cycle& cycle = input.cycles[k];
    const CycleRecord& record = run.cycles[k];
    const bool timed = trace && record.traced;
    std::string error;

    // apply_batch: parse, decode, engine, encode.
    std::vector<Mutation> batch = cycle.batch;
    if (timed) {
      rim::io::JsonObject params = session_params(run.session);
      params["batch"] = mutations_json(cycle.batch);
      const std::string payload =
          request_payload(rim::svc::cmd::kApplyBatch, record.batch_id,
                          std::move(params));
      rim::io::Json doc;
      auto t0 = Clock::now();
      (void)rim::io::Json::parse(payload, doc, error);
      layers.add("codec.parse_us.batch", us_since(t0));
      t0 = Clock::now();
      (void)rim::svc::mutation_batch_from_json(*doc.find("batch"), batch, error);
      layers.add("codec.mutation_decode_us.batch", us_since(t0));
    }
    const double cpu0 = timed ? process_cpu_s() : 0.0;
    auto t0 = Clock::now();
    const rim::core::BatchResult result = mirror.apply_batch(batch);
    const double batch_us = us_since(t0);
    if (!same_batch(result, record.batch)) ++wrong;
    if (timed) {
      layers.add("scenario.apply_batch_us", batch_us);
      layers.add("batch.cpu_s", process_cpu_s() - cpu0);
      layers.add("batch.wall_s", batch_us / 1e6);
      layers.add("scenario.deferred_frac", result.deferred ? 1.0 : 0.0);
      layers.add("scenario.disk_tasks_per_batch",
                 static_cast<double>(result.disk_tasks));
      layers.add("scenario.waves_per_batch", static_cast<double>(result.waves));
      t0 = Clock::now();
      (void)rim::svc::make_ok(record.batch_id, batch_result(result));
      layers.add("codec.dump_us.batch", us_since(t0));
      // The replicator's ship: the owner snapshots and encodes the session.
      t0 = Clock::now();
      const rim::core::Snapshot snapshot = mirror.snapshot();
      layers.add("scenario.snapshot_us", us_since(t0));
      t0 = Clock::now();
      rim::io::JsonObject body;
      body["snapshot"] = snapshot.to_json();
      (void)rim::svc::make_ok(0, rim::io::Json(std::move(body)));
      layers.add("codec.dump_us.snapshot", us_since(t0));
    }

    // query_interference over the whole session.
    if (timed) {
      const std::string payload = request_payload(
          rim::svc::cmd::kQueryInterference, record.query_id,
          session_params(run.session));
      rim::io::Json doc;
      t0 = Clock::now();
      (void)rim::io::Json::parse(payload, doc, error);
      layers.add("codec.parse_us.query", us_since(t0));
    }
    t0 = Clock::now();
    const std::span<const std::uint32_t> per_node = mirror.interference();
    const std::uint32_t max = mirror.max_interference();
    const std::uint64_t total = mirror.total_interference();
    const double query_us = us_since(t0);
    t0 = Clock::now();
    const std::string query_response = rim::svc::make_ok(
        record.query_id, query_all_result(per_node, max, total));
    const double query_dump_us = us_since(t0);
    if (fnv1a(query_response) != record.query_hash) ++wrong;
    if (timed) {
      layers.add("scenario.query_us", query_us);
      layers.add("codec.dump_us.query", query_dump_us);
    }

    // assess of the what-if.
    std::vector<Mutation> whatif = cycle.whatif;
    if (timed) {
      rim::io::JsonObject params = session_params(run.session);
      params["mutations"] = mutations_json(cycle.whatif);
      const std::string payload = request_payload(
          rim::svc::cmd::kAssess, record.assess_id, std::move(params));
      rim::io::Json doc;
      t0 = Clock::now();
      (void)rim::io::Json::parse(payload, doc, error);
      layers.add("codec.parse_us.assess", us_since(t0));
      t0 = Clock::now();
      (void)rim::svc::mutation_batch_from_json(*doc.find("mutations"), whatif,
                                               error);
      layers.add("codec.mutation_decode_us.assess", us_since(t0));
    }
    t0 = Clock::now();
    const rim::core::Assessment assessment =
        assessor.assess(mirror, std::span<const Mutation>(whatif));
    const double whatif_us = us_since(t0);
    t0 = Clock::now();
    const std::string assess_response =
        rim::svc::make_ok(record.assess_id, assessment_result(assessment));
    const double assess_dump_us = us_since(t0);
    if (fnv1a(assess_response) != record.assess_hash) ++wrong;
    if (timed) {
      layers.add("assessor.whatif_us", whatif_us);
      layers.add("codec.dump_us.assess", assess_dump_us);
    }
  }
  // The final whole-session answer, byte for byte.
  if (rim::svc::make_ok(final_id, query_all_result(mirror)) != final_payload) {
    ++wrong;
  }
  return wrong;
}

/// Sum of the parts of [from, to) during which another thread held
/// \p backend's connection (its exchanges are serialized, so disjoint).
double foreign_overlap_us(const std::vector<const Span*>& exchanges,
                          std::int64_t from, std::int64_t to,
                          std::uint16_t thread) {
  if (to <= from) return 0.0;
  auto it = std::lower_bound(
      exchanges.begin(), exchanges.end(), from,
      [](const Span* s, std::int64_t t) { return s->end_ns <= t; });
  double overlap_ns = 0.0;
  for (; it != exchanges.end() && (*it)->start_ns < to; ++it) {
    if ((*it)->thread == thread) continue;
    overlap_ns += static_cast<double>(std::min(to, (*it)->end_ns) -
                                      std::max(from, (*it)->start_ns));
  }
  return overlap_ns / 1e3;
}

/// Router, exchange and replicator metrics from the traced spans.
void router_layers(const std::vector<Span>& spans, Report& report,
                   const std::vector<ClientLog>& logs) {
  auto& L = report.per_layer;
  std::vector<std::vector<const Span*>> by_backend(kBackends);
  std::vector<std::vector<const Span*>> children;  // per router span
  std::unordered_map<std::uint64_t, std::size_t> router_index;
  std::vector<const Span*> routers;
  for (const Span& s : spans) {
    if (s.layer == Layer::kRouter) {
      router_index[s.id] = routers.size();
      routers.push_back(&s);
    }
  }
  children.resize(routers.size());
  for (const Span& s : spans) {
    if (s.layer != Layer::kBackendTransport) continue;
    if (s.backend < kBackends) by_backend[s.backend].push_back(&s);
    const auto it = router_index.find(s.parent);
    if (it != router_index.end()) children[it->second].push_back(&s);
  }
  // Spans are sorted by start; per backend, exchanges never overlap.
  double handle_sum[3] = {0, 0, 0};
  double self_sum[3] = {0, 0, 0};
  std::size_t count[3] = {0, 0, 0};
  double wait_sum = 0.0;
  std::size_t exchanges = 0;
  double ship_sum = 0.0;
  double ship_bytes = 0.0;
  std::size_t ships = 0;
  std::size_t mutates = 0;
  for (std::size_t r = 0; r < routers.size(); ++r) {
    const Span& router = *routers[r];
    const int slot = router.cls == Cls::kQuery   ? 0
                     : router.cls == Cls::kBatch ? 1
                     : router.cls == Cls::kAssess ? 2
                                                  : -1;
    if (slot < 0) continue;
    double inside = 0.0;
    double wait = 0.0;
    std::int64_t cursor = router.start_ns;
    for (const Span* e : children[r]) {
      inside += e->us();
      if (e->backend < kBackends) {
        wait += foreign_overlap_us(by_backend[e->backend], cursor, e->start_ns,
                                   router.thread);
      }
      cursor = e->end_ns;
      if (e->cls == Cls::kSnapshot || e->cls == Cls::kReplicate) {
        ship_sum += e->us();
      }
      if (e->cls == Cls::kReplicate) {
        ship_bytes += e->req_bytes;
        ++ships;
      }
    }
    exchanges += children[r].size();
    wait_sum += wait;
    handle_sum[slot] += router.us();
    self_sum[slot] += router.us() - inside - wait;
    ++count[slot];
    if (router.cls == Cls::kBatch) ++mutates;
  }
  const char* names[3] = {"query", "batch", "assess"};
  std::size_t total = 0;
  for (int i = 0; i < 3; ++i) {
    const double n = std::max<std::size_t>(count[i], 1);
    L[std::string("router.handle_us.") + names[i]] = {handle_sum[i] / n, "us"};
    L[std::string("router.self_us.") + names[i]] = {self_sum[i] / n, "us"};
    total += count[i];
  }
  const double requests = static_cast<double>(std::max<std::size_t>(total, 1));
  L["router.lock_wait_us"] = {wait_sum / requests, "us"};
  L["router.exchanges_per_req"] = {static_cast<double>(exchanges) / requests,
                                   "count"};
  L["replicator.ship_us"] = {ships == 0 ? 0.0 : ship_sum / static_cast<double>(ships),
                             "us"};
  L["replicator.ship_bytes"] = {
      ships == 0 ? 0.0 : ship_bytes / static_cast<double>(ships), "B"};
  L["replicator.ships_per_mutate"] = {
      mutates == 0 ? 0.0 : static_cast<double>(ships) / static_cast<double>(mutates),
      "count"};
  double mutate_sum = 0.0;  // client-side apply_batch time, traced slices
  for (const ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.mutate_us.size(); ++i) {
      if (log.mutate_slice[i] % 2 == 1) mutate_sum += log.mutate_us[i];
    }
  }
  L["replicator.ship_share"] = {mutate_sum <= 0.0 ? 0.0 : ship_sum / mutate_sum,
                                "ratio"};
}

}  // namespace

Report run_routed_churn(const RunOptions& options) {
  Report report;
  const double warmup = warmup_seconds(options.seconds);
  const auto cycle_budget = static_cast<std::size_t>(
      (options.seconds + warmup + 1.0) * kMaxCyclesPerSecond);
  const std::size_t session_count = kClients * kSessionsPerClient;

  std::vector<SessionInput> inputs(session_count);
  std::vector<double> deploy_ms;
  std::vector<double> topology_ms;
  std::vector<double> seed_ms;
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double rep_deploy = 0.0;
    double rep_topology = 0.0;
    for (std::size_t s = 0; s < session_count; ++s) {
      inputs[s].deployment =
          make_deployment(kNodes, kDensity, derive_seed(options.seed, s));
      inputs[s].seed = seed_batch(inputs[s].deployment);
      rep_deploy += inputs[s].deployment.deploy_ms;
      rep_topology += inputs[s].deployment.topology_ms;
    }
    cluster.reset();
    cluster = std::make_unique<Cluster>();
    SetupTimes times;
    std::string error;
    if (!build_cluster(*cluster, inputs, times, error)) {
      report.fail_check("set-up: " + error);
      return report;
    }
    deploy_ms.push_back(rep_deploy);
    topology_ms.push_back(rep_topology);
    seed_ms.push_back(times.seed_ms);
    setup_s.push_back(times.total_s + (rep_deploy + rep_topology) / 1e3);
  }
  for (std::size_t s = 0; s < session_count; ++s) {
    inputs[s].cycles = make_cycles(inputs[s].deployment, cycle_budget,
                                   derive_seed(options.seed, 100 + s));
  }
  report.note("inputs: seed " + std::to_string(options.seed) + ", " +
              std::to_string(kClients) + " loopback clients x " +
              std::to_string(kSessionsPerClient) + " sessions of " +
              std::to_string(kNodes) + " nodes (NNF, density 12.5) over " +
              std::to_string(kBackends) + " backends; batch size " +
              std::to_string(kBatch) + ", what-if size " +
              std::to_string(kWhatIfMoves));

  std::vector<ClientRun> runs(kClients);
  std::vector<SessionRun> session_runs(session_count);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
      session_runs[c * kSessionsPerClient + s].session = cluster->sessions[c][s];
    }
  }
  std::vector<double> steal;
  const Window measured = make_window(warmup, options.seconds, kSlices, options.trace);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(*cluster->clients[c], cluster->sessions[c],
                    &inputs[c * kSessionsPerClient], measured,
                    &session_runs[c * kSessionsPerClient], runs[c]);
      });
    }
    std::this_thread::sleep_until(measured.start);
    steal = drive_window(measured, options.trace);
    for (std::thread& t : threads) t.join();
  }

  // --- output checks (outside the window) ---
  std::vector<std::string> finals(session_count);
  std::vector<std::uint64_t> final_ids(session_count);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
      rim::svc::Client& client = *cluster->clients[c];
      ++runs[c].log.attempted;
      if (!client.try_query_interference(cluster->sessions[c][s]).has_value()) {
        runs[c].log.fail("final query_interference failed");
      }
      finals[c * kSessionsPerClient + s] = client.last_response_payload();
      final_ids[c * kSessionsPerClient + s] = client.last_request_id();
    }
  }
  std::uint64_t shed = cluster->front->shed();
  std::uint64_t handled = cluster->front->handled();
  for (const auto& backend : cluster->backends) {
    shed += backend->shed();
    handled += backend->handled();
  }
  cluster->router->stop();  // the health monitor records no more spans
  const std::vector<Span> spans = options.trace ? collect_spans() : std::vector<Span>{};
  cluster.reset();

  LayerSums layers;
  std::uint64_t wrong = 0;
  for (std::size_t s = 0; s < session_count; ++s) {
    if (session_runs[s].cycles.size() == inputs[s].cycles.size()) {
      report.note("session " + std::to_string(s) +
                  " exhausted its precomputed cycles before the window ended");
    }
    const std::uint64_t session_wrong =
        replay(inputs[s], session_runs[s], options.trace, layers,
               final_ids[s], finals[s]);
    if (session_wrong > 0) {
      report.fail_check("session " + std::to_string(s) + ": " +
                        std::to_string(session_wrong) +
                        " answers differ from the mirror scenario");
    }
    wrong += session_wrong;
  }

  std::size_t reads = 0;
  std::size_t mutates = 0;
  std::vector<ClientLog> logs;
  for (ClientRun& run : runs) {
    report.attempted += run.log.attempted;
    report.failed += run.log.failed;
    if (!run.log.first_error.empty()) {
      report.fail_check("request failed: " + run.log.first_error);
    }
    reads += run.read_requests;
    mutates += run.mutate_requests;
    logs.push_back(std::move(run.log));
  }
  report.failed += wrong;
  report.note("requests by class: apply_batch " + std::to_string(mutates) +
              ", query_interference + assess " + std::to_string(reads));
  report_serving(report, logs, measured, steal, median(setup_s));
  report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

  if (options.trace) {
    auto& L = report.per_layer;
    const SpanMeans client = span_means(spans, Layer::kClientTransport);
    const SpanMeans router = span_means(spans, Layer::kRouter);
    L["transport.roundtrip_us"] = {client.mean_us(), "us"};
    L["transport.self_us"] = {client.mean_us() - router.mean_us(), "us"};
    L["transport.req_bytes"] = {client.mean_req_bytes(), "B"};
    L["transport.resp_bytes"] = {client.mean_resp_bytes(), "B"};
    const std::pair<Cls, const char*> engine[] = {
        {Cls::kQuery, "scenario.query_us"},
        {Cls::kBatch, "scenario.apply_batch_us"},
        {Cls::kAssess, "assessor.whatif_us"}};
    for (const auto& [cls, engine_key] : engine) {
      const std::string name = class_name(cls);
      const double handle = span_means(spans, Layer::kService, cls).mean_us();
      L["service.handle_us." + name] = {handle, "us"};
      L["service.self_us." + name] = {handle - layers.mean(engine_key), "us"};
      L["codec.parse_us." + name] = {layers.mean("codec.parse_us." + name), "us"};
      L["codec.dump_us." + name] = {layers.mean("codec.dump_us." + name), "us"};
    }
    L["service.handle_us.snapshot"] = {
        span_means(spans, Layer::kService, Cls::kSnapshot).mean_us(), "us"};
    L["service.handle_us.replicate"] = {
        span_means(spans, Layer::kService, Cls::kReplicate).mean_us(), "us"};
    L["service.shed_frac"] = {
        handled + shed == 0 ? 0.0
                            : static_cast<double>(shed) /
                                  static_cast<double>(handled + shed),
        "ratio"};
    L["codec.dump_us.snapshot"] = {layers.mean("codec.dump_us.snapshot"), "us"};
    L["codec.mutation_decode_us.batch"] = {
        layers.mean("codec.mutation_decode_us.batch"), "us"};
    L["codec.mutation_decode_us.assess"] = {
        layers.mean("codec.mutation_decode_us.assess"), "us"};
    for (const char* key :
         {"scenario.apply_batch_us", "scenario.query_us", "scenario.snapshot_us",
          "assessor.whatif_us"}) {
      L[key] = {layers.mean(key), "us"};
    }
    L["scenario.deferred_frac"] = {layers.mean("scenario.deferred_frac"), "ratio"};
    L["scenario.disk_tasks_per_batch"] = {
        layers.mean("scenario.disk_tasks_per_batch"), "count"};
    L["scenario.waves_per_batch"] = {layers.mean("scenario.waves_per_batch"),
                                     "count"};
    L["scenario.batch_cpu_per_wall"] = {
        layers.sum("batch.wall_s") <= 0.0
            ? 0.0
            : layers.sum("batch.cpu_s") / layers.sum("batch.wall_s"),
        "ratio"};
    L["setup.deploy_ms"] = {median(deploy_ms), "ms"};
    L["setup.topology_ms"] = {median(topology_ms), "ms"};
    L["setup.seed_ms"] = {median(seed_ms), "ms"};
    router_layers(spans, report, logs);
    L["trace.overhead_frac"] = {tracing_overhead(logs), "ratio"};
    write_span_dump(report, spans, options);
  }
  return report;
}

}  // namespace perfbench
