#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <mutex>

#include "stats.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};

/// One recording thread's spans. Owned by the registry so the spans outlive
/// the thread (pool and reader threads end before the report is built).
struct ThreadBuffer {
  std::uint16_t index = 0;
  std::uint64_t next_local = 1;
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by the mutex

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_parent = 0;
thread_local std::uint64_t tl_trace = 0;
thread_local int tl_depth = 0;        ///< open ScopedSpans, traced or not
thread_local bool tl_traced = false;  ///< the outermost span's decision

ThreadBuffer& thread_buffer() {
  if (tl_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->index = static_cast<std::uint16_t>(g_buffers.size() - 1);
    tl_buffer = g_buffers.back().get();
  }
  return *tl_buffer;
}

/// The payload of a frame (drops the 4-byte length prefix).
std::string_view frame_payload(std::string_view frame) {
  return frame.size() >= 4 ? frame.substr(4) : std::string_view{};
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kClientTransport: return "svc.transport";
    case Layer::kRouter: return "shard.router";
    case Layer::kBackendTransport: return "shard.exchange";
    case Layer::kService: return "svc.service";
    case Layer::kAssessor: return "core.assessor";
    case Layer::kScenario: return "core.scenario";
    case Layer::kCount: break;
  }
  return "?";
}

const char* class_name(Cls cls) {
  switch (cls) {
    case Cls::kQuery: return "query";
    case Cls::kEdit: return "edit";
    case Cls::kBatch: return "batch";
    case Cls::kAssess: return "assess";
    case Cls::kSnapshot: return "snapshot";
    case Cls::kReplicate: return "replicate";
    case Cls::kPing: return "ping";
    case Cls::kEval: return "eval";
    case Cls::kOther: return "other";
    case Cls::kCount: break;
  }
  return "?";
}

Cls classify_payload(std::string_view payload) {
  constexpr std::string_view kKey = "\"cmd\":\"";
  const std::size_t at = payload.find(kKey);
  if (at == std::string_view::npos) return Cls::kOther;
  const std::string_view rest = payload.substr(at + kKey.size());
  const std::string_view name = rest.substr(0, rest.find('"'));
  if (name == "query_interference") return Cls::kQuery;
  if (name == "apply_batch") return Cls::kBatch;
  if (name == "assess") return Cls::kAssess;
  if (name == "move" || name == "add_edge" || name == "remove_edge" ||
      name == "add_node" || name == "remove_node") {
    return Cls::kEdit;
  }
  if (name == "snapshot") return Cls::kSnapshot;
  if (name == "replicate_session") return Cls::kReplicate;
  if (name == "ping") return Cls::kPing;
  return Cls::kOther;
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<Span> collect_spans() {
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : g_buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool dump_spans(const std::vector<Span>& spans, const std::string& path,
                std::size_t max_spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::size_t count = std::min(max_spans, spans.size());
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << ",\"layer\":\"" << layer_name(s.layer)
        << "\",\"class\":\"" << class_name(s.cls)
        << "\",\"backend\":" << s.backend << ",\"thread\":" << s.thread
        << ",\"start_ns\":" << (s.start_ns - origin)
        << ",\"end_ns\":" << (s.end_ns - origin)
        << ",\"req_bytes\":" << s.req_bytes
        << ",\"resp_bytes\":" << s.resp_bytes << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Layer layer, std::uint16_t backend) {
  if (tl_depth == 0) {
    outermost_ = true;
    tl_traced = g_tracing.load(std::memory_order_relaxed);
  }
  ++tl_depth;
  if (!tl_traced) return;
  active_ = true;
  ThreadBuffer& buffer = thread_buffer();
  span_.id = (static_cast<std::uint64_t>(buffer.index + 1) << 40) |
             buffer.next_local++;
  span_.parent = tl_parent;
  span_.trace = outermost_ ? span_.id : tl_trace;
  span_.layer = layer;
  span_.backend = backend;
  span_.thread = buffer.index;
  saved_parent_ = tl_parent;
  saved_trace_ = tl_trace;
  tl_parent = span_.id;
  tl_trace = span_.trace;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  --tl_depth;
  if (!active_) return;
  span_.end_ns = now_ns();
  tl_parent = saved_parent_;
  tl_trace = saved_trace_;
  tl_buffer->spans.push_back(span_);
}

void ScopedSpan::set_class(Cls cls) { span_.cls = cls; }

void ScopedSpan::set_bytes(std::size_t req, std::size_t resp) {
  span_.req_bytes = static_cast<std::uint32_t>(req);
  span_.resp_bytes = static_cast<std::uint32_t>(resp);
}

rim::svc::TransportStatus TimedTransport::roundtrip(std::string_view frame,
                                                    std::string& response_frame,
                                                    std::string& error) {
  ScopedSpan span(layer_, backend_);
  if (span.active()) span.set_class(classify_payload(frame_payload(frame)));
  const rim::svc::TransportStatus status =
      inner_->roundtrip(frame, response_frame, error);
  span.set_bytes(frame.size(), response_frame.size());
  return status;
}

std::string TimedHandler::handle_admitted(std::string_view payload) {
  handled_.fetch_add(1, std::memory_order_relaxed);
  ScopedSpan span(layer_);
  if (span.active()) span.set_class(classify_payload(payload));
  std::string response = inner_.handle_admitted(payload);
  span.set_bytes(payload.size(), response.size());
  return response;
}

std::string TimedHandler::overloaded_response(std::string_view payload) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  return inner_.overloaded_response(payload);
}

}  // namespace perfbench
