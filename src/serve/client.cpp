#include "serve/client.h"

#include <algorithm>
#include <utility>

namespace atlas::serve {

Client::Client(const std::string& host, int port)
    : fd_(tcp_connect(host, port)) {}

std::uint64_t Client::post(Op op, std::uint64_t session_id,
                           const std::vector<std::uint8_t>& body) {
  const std::uint64_t request_id = next_request_id_++;
  WireWriter w;
  w.u64(request_id);
  w.u16(static_cast<std::uint16_t>(op));
  w.u64(session_id);
  std::vector<std::uint8_t> frame = w.take();
  frame.insert(frame.end(), body.begin(), body.end());
  if (!write_frame(fd_.get(), frame)) {
    throw Error("serve connection lost while sending " +
                    std::string(op_name(op)),
                ErrorCode::unavailable);
  }
  return request_id;
}

Status Client::wait_status(std::uint64_t request_id,
                           std::vector<std::uint8_t>* body,
                           std::string* message) {
  std::vector<std::uint8_t> payload;
  for (;;) {
    // Parked frame from an earlier out-of-order arrival?
    auto it = std::find_if(parked_.begin(), parked_.end(),
                           [request_id](const auto& p) {
                             return p.first == request_id;
                           });
    if (it != parked_.end()) {
      payload = std::move(it->second);
      parked_.erase(it);
    } else {
      if (!read_frame(fd_.get(), payload)) {
        throw Error("serve connection lost while waiting for reply " +
                        std::to_string(request_id),
                    ErrorCode::unavailable);
      }
      WireReader peek(payload);
      const std::uint64_t got = peek.u64();
      if (got != request_id) {
        parked_.emplace_back(got, std::move(payload));
        payload.clear();
        continue;
      }
    }
    WireReader r(payload);
    r.u64();  // request_id, already matched
    const Status status = static_cast<Status>(r.u16());
    if (status == Status::ok) {
      if (body != nullptr) {
        body->assign(payload.begin() +
                         static_cast<std::ptrdiff_t>(payload.size() -
                                                     r.remaining()),
                     payload.end());
      }
    } else if (message != nullptr) {
      *message = r.str();
    }
    return status;
  }
}

std::vector<std::uint8_t> Client::wait(std::uint64_t request_id) {
  std::vector<std::uint8_t> body;
  std::string message;
  const Status status = wait_status(request_id, &body, &message);
  if (status != Status::ok) {
    throw Error("serve error (" + std::string(status_name(status)) +
                    "): " + message,
                error_code_from(status));
  }
  return body;
}

std::vector<std::uint8_t> Client::call(Op op, std::uint64_t session_id,
                                       const std::vector<std::uint8_t>& body) {
  return wait(post(op, session_id, body));
}

bool Client::send_raw_frame(const std::vector<std::uint8_t>& payload) {
  return write_frame(fd_.get(), payload);
}

std::uint64_t Client::open_session(const OpenSessionRequest& request) {
  WireWriter w;
  request.encode(w);
  const std::vector<std::uint8_t> reply = call(Op::open_session, 0, w.bytes());
  WireReader r(reply);
  return r.u64();
}

SubmitReply Client::submit_qasm(std::uint64_t session_id,
                                const std::string& qasm) {
  WireWriter w;
  w.str(qasm);
  const std::vector<std::uint8_t> reply = call(Op::submit_qasm, session_id, w.bytes());
  WireReader r(reply);
  return SubmitReply::decode(r);
}

CompileReply Client::compile(std::uint64_t session_id,
                             std::uint32_t circuit_id) {
  WireWriter w;
  w.u32(circuit_id);
  const std::vector<std::uint8_t> reply = call(Op::compile, session_id, w.bytes());
  WireReader r(reply);
  return CompileReply::decode(r);
}

RunReply Client::run(std::uint64_t session_id, std::uint32_t compiled_id,
                     const std::vector<double>& values) {
  WireWriter w;
  w.u32(compiled_id);
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (double v : values) w.f64(v);
  const std::vector<std::uint8_t> reply = call(Op::run, session_id, w.bytes());
  WireReader r(reply);
  return RunReply::decode(r);
}

std::vector<SweepPoint> Client::sweep(
    std::uint64_t session_id, std::uint32_t compiled_id,
    const std::vector<std::vector<double>>& points) {
  const std::size_t point_size = points.empty() ? 0 : points.front().size();
  for (const auto& p : points) {
    ATLAS_CHECK_ARG(p.size() == point_size,
                    "sweep points must have equal size");
  }
  WireWriter w;
  w.u32(compiled_id);
  w.u32(static_cast<std::uint32_t>(points.size()));
  w.u32(static_cast<std::uint32_t>(point_size));
  for (const auto& p : points) {
    for (double v : p) w.f64(v);
  }
  const std::vector<std::uint8_t> reply = call(Op::sweep, session_id, w.bytes());
  WireReader r(reply);
  const std::uint32_t n = r.count(12);  // norm_sq f64 + z count u32
  std::vector<SweepPoint> out(n);
  for (auto& p : out) {
    p.norm_sq = r.f64();
    const std::uint32_t nq = r.count(8);
    p.expectation_z.resize(nq);
    for (auto& z : p.expectation_z) z = r.f64();
  }
  return out;
}

NoisyReply Client::run_noisy(std::uint64_t session_id,
                             std::uint32_t circuit_id, int trajectories,
                             int shots, const std::vector<double>& values) {
  WireWriter w;
  w.u32(circuit_id);
  w.u32(static_cast<std::uint32_t>(trajectories));
  w.u32(static_cast<std::uint32_t>(shots));
  w.u32(static_cast<std::uint32_t>(values.size()));
  for (double v : values) w.f64(v);
  const std::vector<std::uint8_t> reply = call(Op::run_noisy, session_id, w.bytes());
  WireReader r(reply);
  return NoisyReply::decode(r);
}

std::vector<std::uint64_t> Client::sample(std::uint64_t session_id,
                                          std::uint32_t result_id,
                                          int shots) {
  WireWriter w;
  w.u32(result_id);
  w.u32(static_cast<std::uint32_t>(shots));
  const std::vector<std::uint8_t> reply = call(Op::sample, session_id, w.bytes());
  WireReader r(reply);
  const std::uint32_t n = r.count(8);
  std::vector<std::uint64_t> out(n);
  for (auto& s : out) s = r.u64();
  return out;
}

void Client::close_session(std::uint64_t session_id) {
  call(Op::close_session, session_id, {});
}

std::vector<SessionInfo> Client::list_sessions() {
  const std::vector<std::uint8_t> reply = call(Op::list_sessions, 0, {});
  WireReader r(reply);
  const std::uint32_t n = r.count(8);  // at least the session id
  std::vector<SessionInfo> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(SessionInfo::decode(r));
  return out;
}

CacheStatsReply Client::cache_stats() {
  const std::vector<std::uint8_t> reply = call(Op::cache_stats, 0, {});
  WireReader r(reply);
  return CacheStatsReply::decode(r);
}

MetricsReply Client::metrics() {
  const std::vector<std::uint8_t> reply = call(Op::metrics, 0, {});
  WireReader r(reply);
  return MetricsReply::decode(r);
}

void Client::evict_session(std::uint64_t session_id) {
  call(Op::evict_session, session_id, {});
}

void Client::drain() { call(Op::drain, 0, {}); }

void Client::shutdown_server() { call(Op::shutdown, 0, {}); }

}  // namespace atlas::serve
