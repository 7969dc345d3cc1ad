#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rim/svc/handler.hpp"
#include "rim/svc/transport.hpp"

/// \file trace.hpp
/// Timing decorators for the program's two public seams, svc::Transport and
/// svc::RequestHandler, plus the span store they record into.
///
/// Every decorator forwards the call and records nothing while tracing is
/// off. While it is on, each call records one Span: layer, request class
/// (from the payload's "cmd"), start/end, bytes in and out, and the span
/// that caused it. Causality is per thread: a loopback exchange runs the
/// client transport, router, backend transport and service on the caller's
/// thread, so nested spans share the outermost span's trace id. A TCP
/// server dispatches on its own pool, so service spans there start a trace
/// of their own.
///
/// Whether a request is traced is decided once, by its outermost span on a
/// thread, so toggling tracing mid-request never leaves half a trace.

namespace perfbench {

enum class Layer : std::uint8_t {
  kClientTransport,   ///< svc.transport: the client's roundtrip
  kRouter,            ///< shard.router: Router::handle_admitted
  kBackendTransport,  ///< router -> backend exchange (BackendEndpoint::connect)
  kService,           ///< svc.service: Service::handle_admitted
  kAssessor,          ///< core.assessor: one full evaluation (library only)
  kScenario,          ///< core.scenario: one apply_batch (library only)
  kCount,
};

enum class Cls : std::uint8_t {
  kQuery,      ///< query_interference
  kEdit,       ///< move / add_edge / remove_edge / add_node / remove_node
  kBatch,      ///< apply_batch
  kAssess,     ///< assess
  kSnapshot,   ///< snapshot (the replicator's fetch)
  kReplicate,  ///< replicate_session (the replicator's push)
  kPing,       ///< ping (health probes)
  kEval,       ///< a full evaluation under one model
  kOther,      ///< session lifecycle and everything else
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);
[[nodiscard]] const char* class_name(Cls cls);

/// Class of a request payload, from its "cmd" member.
[[nodiscard]] Cls classify_payload(std::string_view payload);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: outermost on its thread
  std::uint64_t trace = 0;   ///< id of the outermost span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t req_bytes = 0;
  std::uint32_t resp_bytes = 0;
  Layer layer = Layer::kClientTransport;
  Cls cls = Cls::kOther;
  std::uint16_t backend = 0;  ///< backend index for kBackendTransport
  std::uint16_t thread = 0;   ///< recording thread (registration order)

  [[nodiscard]] double us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// Turns span recording on or off for requests that start afterwards.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Every span recorded so far, all threads, ordered by start. Call only
/// while no traced request is in flight.
[[nodiscard]] std::vector<Span> collect_spans();

/// Writes the first \p max_spans spans as JSON lines to \p path.
/// False when the file cannot be written.
bool dump_spans(const std::vector<Span>& spans, const std::string& path,
                std::size_t max_spans);

/// RAII span on the current thread (inactive when the request is untraced).
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, std::uint16_t backend = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] bool active() const { return active_; }
  void set_class(Cls cls);
  void set_bytes(std::size_t req, std::size_t resp);

 private:
  bool active_ = false;
  bool outermost_ = false;
  Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_trace_ = 0;
};

/// svc::Transport decorator: times roundtrip() as \p layer.
class TimedTransport final : public rim::svc::Transport {
 public:
  TimedTransport(std::unique_ptr<rim::svc::Transport> inner, Layer layer,
                 std::uint16_t backend = 0)
      : inner_(std::move(inner)), layer_(layer), backend_(backend) {}

  [[nodiscard]] rim::svc::TransportStatus roundtrip(
      std::string_view frame, std::string& response_frame,
      std::string& error) override;

 private:
  std::unique_ptr<rim::svc::Transport> inner_;
  Layer layer_;
  std::uint16_t backend_;
};

/// svc::RequestHandler decorator: times handle_admitted() as \p layer and
/// counts admissions and sheds. Tickets are the inner handler's own, so
/// admission accounting stays exactly the wrapped handler's.
class TimedHandler final : public rim::svc::RequestHandler {
 public:
  TimedHandler(rim::svc::RequestHandler& inner, Layer layer)
      : inner_(inner), layer_(layer) {}

  [[nodiscard]] Ticket try_admit() override { return inner_.try_admit(); }
  [[nodiscard]] std::string handle_admitted(std::string_view payload) override;
  [[nodiscard]] std::string overloaded_response(
      std::string_view payload) override;
  [[nodiscard]] std::size_t max_frame_bytes() const override {
    return inner_.max_frame_bytes();
  }

  [[nodiscard]] std::uint64_t handled() const {
    return handled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shed() const {
    return shed_.load(std::memory_order_relaxed);
  }

 protected:
  // Tickets come from inner_.try_admit() and release there.
  void release_admission() override {}

 private:
  rim::svc::RequestHandler& inner_;
  Layer layer_;
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace perfbench
