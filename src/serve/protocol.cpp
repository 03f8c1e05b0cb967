#include "serve/protocol.h"

#include <bit>

#include "serve/net.h"

namespace atlas::serve {

static_assert(std::endian::native == std::endian::little,
              "the serve wire protocol assumes a little-endian host");

Status status_from(ErrorCode code) {
  switch (code) {
    case ErrorCode::invalid_argument: return Status::invalid_argument;
    case ErrorCode::not_found: return Status::not_found;
    case ErrorCode::capacity: return Status::capacity;
    case ErrorCode::unavailable: return Status::unavailable;
    case ErrorCode::internal: return Status::internal;
  }
  return Status::internal;
}

ErrorCode error_code_from(Status status) {
  switch (status) {
    case Status::ok: return ErrorCode::internal;  // not an error
    case Status::invalid_argument: return ErrorCode::invalid_argument;
    case Status::not_found: return ErrorCode::not_found;
    case Status::capacity: return ErrorCode::capacity;
    case Status::unavailable: return ErrorCode::unavailable;
    case Status::internal: return ErrorCode::internal;
  }
  return ErrorCode::internal;
}

const char* status_name(Status status) {
  switch (status) {
    case Status::ok: return "ok";
    case Status::invalid_argument: return "invalid_argument";
    case Status::not_found: return "not_found";
    case Status::capacity: return "capacity";
    case Status::unavailable: return "unavailable";
    case Status::internal: return "internal";
  }
  return "?";
}

const char* op_name(Op op) {
  switch (op) {
    case Op::open_session: return "open_session";
    case Op::submit_qasm: return "submit_qasm";
    case Op::compile: return "compile";
    case Op::run: return "run";
    case Op::sweep: return "sweep";
    case Op::run_noisy: return "run_noisy";
    case Op::sample: return "sample";
    case Op::close_session: return "close_session";
    case Op::list_sessions: return "list_sessions";
    case Op::cache_stats: return "cache_stats";
    case Op::evict_session: return "evict_session";
    case Op::drain: return "drain";
    case Op::shutdown: return "shutdown";
    case Op::metrics: return "metrics";
  }
  return "?";
}

void OpenSessionRequest::encode(WireWriter& w) const {
  w.str(tenant);
  w.u32(static_cast<std::uint32_t>(local_qubits));
  w.u32(static_cast<std::uint32_t>(regional_qubits));
  w.u32(static_cast<std::uint32_t>(global_qubits));
  w.u32(static_cast<std::uint32_t>(gpus_per_node));
  w.u32(static_cast<std::uint32_t>(opt_level));
  w.u64(seed);
  w.u32(ttl_ms);
}

OpenSessionRequest OpenSessionRequest::decode(WireReader& r) {
  OpenSessionRequest q;
  q.tenant = r.str();
  q.local_qubits = static_cast<int>(r.u32());
  q.regional_qubits = static_cast<int>(r.u32());
  q.global_qubits = static_cast<int>(r.u32());
  q.gpus_per_node = static_cast<int>(r.u32());
  q.opt_level = static_cast<int>(r.u32());
  q.seed = r.u64();
  q.ttl_ms = r.u32();
  return q;
}

namespace {

void encode_strings(WireWriter& w, const std::vector<std::string>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) w.str(s);
}

std::vector<std::string> decode_strings(WireReader& r) {
  const std::uint32_t n = r.count(4);  // each string's length prefix
  std::vector<std::string> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.str());
  return v;
}

void encode_doubles(WireWriter& w, const std::vector<double>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) w.f64(x);
}

std::vector<double> decode_doubles(WireReader& r) {
  const std::uint32_t n = r.count(8);
  std::vector<double> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

}  // namespace

void SubmitReply::encode(WireWriter& w) const {
  w.u32(circuit_id);
  w.u32(num_qubits);
  w.u32(num_gates);
  w.u8(has_noise ? 1 : 0);
  encode_strings(w, symbols);
}

SubmitReply SubmitReply::decode(WireReader& r) {
  SubmitReply q;
  q.circuit_id = r.u32();
  q.num_qubits = r.u32();
  q.num_gates = r.u32();
  q.has_noise = r.u8() != 0;
  q.symbols = decode_strings(r);
  return q;
}

void CompileReply::encode(WireWriter& w) const {
  w.u32(compiled_id);
  w.u8(shared_cache_hit ? 1 : 0);
  encode_strings(w, symbols);
}

CompileReply CompileReply::decode(WireReader& r) {
  CompileReply q;
  q.compiled_id = r.u32();
  q.shared_cache_hit = r.u8() != 0;
  q.symbols = decode_strings(r);
  return q;
}

void RunReply::encode(WireWriter& w) const {
  w.u32(result_id);
  w.u64(seed);
  w.f64(norm_sq);
  encode_doubles(w, expectation_z);
}

RunReply RunReply::decode(WireReader& r) {
  RunReply q;
  q.result_id = r.u32();
  q.seed = r.u64();
  q.norm_sq = r.f64();
  q.expectation_z = decode_doubles(r);
  return q;
}

void NoisyReply::encode(WireWriter& w) const {
  w.u64(trajectories);
  w.u8(pauli_fast_path ? 1 : 0);
  w.f64(mean_weight);
  encode_doubles(w, z_value);
  encode_doubles(w, z_std_error);
  w.u32(static_cast<std::uint32_t>(counts.size()));
  for (const auto& [basis, weight] : counts) {
    w.u64(basis);
    w.f64(weight);
  }
}

NoisyReply NoisyReply::decode(WireReader& r) {
  NoisyReply q;
  q.trajectories = r.u64();
  q.pauli_fast_path = r.u8() != 0;
  q.mean_weight = r.f64();
  q.z_value = decode_doubles(r);
  q.z_std_error = decode_doubles(r);
  const std::uint32_t n = r.count(16);  // basis u64 + weight f64
  q.counts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t basis = r.u64();
    const double weight = r.f64();
    q.counts.emplace_back(basis, weight);
  }
  return q;
}

void SessionInfo::encode(WireWriter& w) const {
  w.u64(session_id);
  w.str(tenant);
  w.f64(idle_seconds);
  w.f64(ttl_seconds);
  w.u32(active);
  w.u32(queued);
  w.u32(circuits);
  w.u32(compiled);
  w.u32(results);
}

SessionInfo SessionInfo::decode(WireReader& r) {
  SessionInfo q;
  q.session_id = r.u64();
  q.tenant = r.str();
  q.idle_seconds = r.f64();
  q.ttl_seconds = r.f64();
  q.active = r.u32();
  q.queued = r.u32();
  q.circuits = r.u32();
  q.compiled = r.u32();
  q.results = r.u32();
  return q;
}

void CacheStatsReply::encode(WireWriter& w) const {
  w.u64(shared_hits);
  w.u64(shared_misses);
  w.u64(shared_evictions);
  w.u32(shared_entries);
  w.u64(shared_resident_bytes);
  w.u32(sessions);
  w.u32(session_capacity);
  w.u64(sessions_purged);
}

CacheStatsReply CacheStatsReply::decode(WireReader& r) {
  CacheStatsReply q;
  q.shared_hits = r.u64();
  q.shared_misses = r.u64();
  q.shared_evictions = r.u64();
  q.shared_entries = r.u32();
  q.shared_resident_bytes = r.u64();
  q.sessions = r.u32();
  q.session_capacity = r.u32();
  q.sessions_purged = r.u64();
  return q;
}

void MetricsReply::encode(WireWriter& w) const {
  w.u32(static_cast<std::uint32_t>(metrics.size()));
  for (const auto& m : metrics) {
    w.str(m.name);
    w.u8(m.kind);
    switch (m.kind) {
      case 0:  // counter
        w.u64(m.count);
        break;
      case 1:  // gauge
        w.u64(static_cast<std::uint64_t>(m.gauge));
        break;
      default:  // histogram
        w.u64(m.count);
        w.f64(m.sum);
        w.f64(m.p50);
        w.f64(m.p90);
        w.f64(m.p99);
        break;
    }
  }
}

MetricsReply MetricsReply::decode(WireReader& r) {
  MetricsReply q;
  const std::uint32_t n = r.count(13);  // name length, kind, one u64
  q.metrics.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    MetricEntry m;
    m.name = r.str();
    m.kind = r.u8();
    switch (m.kind) {
      case 0:
        m.count = r.u64();
        break;
      case 1:
        m.gauge = static_cast<std::int64_t>(r.u64());
        break;
      default:
        m.count = r.u64();
        m.sum = r.f64();
        m.p50 = r.f64();
        m.p90 = r.f64();
        m.p99 = r.f64();
        break;
    }
    q.metrics.push_back(std::move(m));
  }
  return q;
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::uint32_t max_bytes) {
  std::uint32_t len = 0;
  if (!read_exact(fd, &len, sizeof(len))) return false;
  if (len > max_bytes) return false;  // garbage length prefix
  payload.resize(len);
  if (len == 0) return true;
  return read_exact(fd, payload.data(), len);
}

bool write_frame(int fd, const std::vector<std::uint8_t>& payload,
                 int timeout_ms) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  // Typical frames are tiny: coalesce prefix + payload into one
  // send() instead of two. Big frames skip the copy and pay the
  // second syscall, which is noise at that size.
  constexpr std::size_t kCoalesceLimit = 64 * 1024;
  if (payload.size() <= kCoalesceLimit) {
    std::vector<std::uint8_t> frame(sizeof(len) + payload.size());
    std::memcpy(frame.data(), &len, sizeof(len));
    if (!payload.empty()) {
      std::memcpy(frame.data() + sizeof(len), payload.data(),
                  payload.size());
    }
    return write_all(fd, frame.data(), frame.size(), timeout_ms);
  }
  if (!write_all(fd, &len, sizeof(len), timeout_ms)) return false;
  return write_all(fd, payload.data(), payload.size(), timeout_ms);
}

}  // namespace atlas::serve
