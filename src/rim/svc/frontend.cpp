#include "rim/svc/frontend.hpp"

#include <limits>
#include <thread>
#include <utility>

#include "rim/svc/protocol.hpp"

namespace rim::svc {

void FrontendCounters::write_json(io::JsonObject& object) const {
  object["requests"] = requests.to_json();
  object["ok"] = ok.to_json();
  object["errors"] = errors.to_json();
  object["rejected_overloaded"] = rejected_overloaded.to_json();
  object["rejected_bad_frame"] = rejected_bad_frame.to_json();
  object["handle_ns"] = handle_ns.to_json();
  object["latency_ns"] = latency_ns.to_json();
}

Frontend::Frontend(std::size_t max_in_flight, std::size_t max_frame_bytes,
                   bool allow_shutdown)
    : max_in_flight_(max_in_flight),
      max_frame_bytes_(max_frame_bytes),
      allow_shutdown_(allow_shutdown) {}

Frontend::Ticket Frontend::try_admit() {
  const std::size_t previous =
      in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (previous >= max_in_flight_) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return Ticket();
  }
  return Ticket(this);
}

std::string Frontend::overloaded_response(std::string_view payload) {
  ++frontend_counters_.requests;
  ++frontend_counters_.errors;
  ++frontend_counters_.rejected_overloaded;
  return make_error(peek_request_id(payload), code::kOverloaded,
                    "service at max in-flight requests (" +
                        std::to_string(max_in_flight_) + "); retry later");
}

std::string Frontend::handle_admitted(std::string_view payload) {
  const obs::ScopedTimer timer(frontend_counters_.handle_ns,
                               &frontend_counters_.latency_ns);
  ++frontend_counters_.requests;
  return dispatch(payload);
}

std::string Frontend::dispatch(std::string_view payload) {
  io::Json request;
  std::string error;
  if (!io::Json::parse(payload, request, error)) {
    ++frontend_counters_.errors;
    ++frontend_counters_.rejected_bad_frame;
    return make_error(0, code::kBadFrame, error);
  }
  if (!request.is_object()) {
    ++frontend_counters_.errors;
    return make_error(0, code::kBadRequest, "request must be a JSON object");
  }
  std::uint64_t id = 0;
  const io::Json* id_field = request.find("id");
  if (id_field != nullptr) {
    (void)json_to_u64(*id_field, std::numeric_limits<std::uint64_t>::max(),
                      id);
  }
  const io::Json* cmd_field = request.find("cmd");
  const std::string* command =
      cmd_field != nullptr ? cmd_field->as_string() : nullptr;
  if (command == nullptr) {
    ++frontend_counters_.errors;
    return make_error(id, code::kBadRequest,
                      "field 'cmd' must be a command name string");
  }
  std::string response;
  if (*command == cmd::kPing) {
    io::JsonObject result;
    result["pong"] = io::Json(true);
    response = make_ok(id, io::Json(std::move(result)));
  } else if (*command == cmd::kMetrics) {
    response = make_ok(id, registry_.snapshot());
  } else if (*command == cmd::kShutdown) {
    if (allow_shutdown_) {
      request_shutdown();
      io::JsonObject result;
      result["shutting_down"] = io::Json(true);
      response = make_ok(id, io::Json(std::move(result)));
    } else {
      response = make_error(id, code::kShutdownDisabled,
                            "this service does not accept shutdown requests");
    }
  } else {
    response = dispatch_command(id, *command, request);
  }
  // Responses are exclusively our builders' output (or a backend's,
  // built by the same builders), so ok-ness is read back from the
  // envelope rather than threaded through every handler.
  if (response.find("\"ok\":true") != std::string::npos) {
    ++frontend_counters_.ok;
  } else {
    ++frontend_counters_.errors;
  }
  return response;
}

void Frontend::wait_shutdown() const {
  while (!shutdown_requested()) {
    std::this_thread::sleep_for(kShutdownPollInterval);
  }
}

}  // namespace rim::svc
