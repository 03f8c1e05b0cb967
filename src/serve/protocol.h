#pragma once

/// \file protocol.h
/// The atlas-serve wire protocol: a length-prefixed binary framing
/// with typed ops (see docs/PROTOCOL.md for the normative spec).
///
/// Frame:    u32 payload_len (LE), then payload_len bytes.
/// Request:  u64 request_id | u16 op | u64 session_id | op body.
/// Response: u64 request_id | u16 status | body
///           (status != ok: body is a string error message).
///
/// All integers are little-endian fixed width; f64 is the IEEE-754
/// bit pattern as u64; a string is u32 length + raw bytes; a vector
/// is u32 count + elements. request_id is chosen by the client and
/// echoed verbatim, so responses may complete out of order (the
/// dispatcher schedules tenants fairly, not FIFO) and clients can
/// pipeline.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"

namespace atlas::serve {

inline constexpr std::uint32_t kProtocolVersion = 2;
/// The port atlas-serve binds and atlas-servectl dials by default;
/// bumped with kProtocolVersion so mismatched builds do not meet.
inline constexpr int kDefaultPort = 7601;
/// Frames longer than this are rejected and the connection dropped —
/// the guard against garbage (or hostile) length prefixes.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

enum class Op : std::uint16_t {
  // Session data plane (scheduled through the per-tenant fair queues).
  open_session = 1,
  submit_qasm = 2,
  compile = 3,
  run = 4,
  sweep = 5,
  run_noisy = 6,
  sample = 7,
  close_session = 8,
  // Introspection / control plane (served inline, even while
  // draining).
  list_sessions = 32,
  cache_stats = 33,
  evict_session = 34,
  drain = 35,
  shutdown = 36,
  /// Process metrics snapshot (obs/metrics.h) — name-sorted entries.
  metrics = 37,
};

enum class Status : std::uint16_t {
  ok = 0,
  invalid_argument = 1,
  not_found = 2,
  capacity = 3,
  unavailable = 4,
  internal = 5,
};

/// Maps an atlas::ErrorCode onto the wire status — the reason Error
/// carries codes at all: no string matching between layers.
Status status_from(ErrorCode code);
/// The inverse map, for clients rethrowing wire errors as atlas::Error.
ErrorCode error_code_from(Status status);
const char* status_name(Status status);
const char* op_name(Op op);

/// Little-endian serializer for one frame payload.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, 2); }
  void u32(std::uint32_t v) { append(&v, 4); }
  void u64(std::uint64_t v) { append(&v, 8); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void append(const void* p, std::size_t n) {
    // Little-endian hosts only (static_asserted in protocol.cpp).
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked deserializer; every underrun throws atlas::Error
/// (ErrorCode::invalid_argument), which the server answers with an
/// error frame instead of dying.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return *take(1); }
  std::uint16_t u16() { return load<std::uint16_t>(); }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  /// Reads a u32 count of items that take at least `item_bytes` wire
  /// bytes each, and throws invalid_argument unless the frame still
  /// holds that many bytes, so no container is sized from a count the
  /// frame cannot back.
  std::uint32_t count(std::uint64_t item_bytes) {
    const std::uint32_t n = u32();
    if (item_bytes != 0 && n > remaining() / item_bytes) {
      throw Error("truncated frame: " + std::to_string(n) + " items of " +
                      std::to_string(item_bytes) + " bytes claimed, have " +
                      std::to_string(remaining()),
                  ErrorCode::invalid_argument);
    }
    return n;
  }

  std::size_t remaining() const { return size_ - off_; }
  bool at_end() const { return off_ == size_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (size_ - off_ < n) {
      throw Error("truncated frame: wanted " + std::to_string(n) +
                      " more bytes, have " + std::to_string(size_ - off_),
                  ErrorCode::invalid_argument);
    }
    const std::uint8_t* p = data_ + off_;
    off_ += n;
    return p;
  }

  template <typename T>
  T load() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

/// \name Shared op payload types
/// Encode/decode for the payloads both client and server touch; ops
/// with trivial bodies are read/written inline at each end.
/// @{

/// open_session body. Negative ints / zero seed mean "inherit the
/// server's base session config"; ttl_ms 0 means the store default.
struct OpenSessionRequest {
  std::string tenant;
  int local_qubits = -1;
  int regional_qubits = -1;
  int global_qubits = -1;
  int gpus_per_node = -1;
  int opt_level = -1;
  std::uint64_t seed = 0;
  std::uint32_t ttl_ms = 0;

  void encode(WireWriter& w) const;
  static OpenSessionRequest decode(WireReader& r);
};

/// submit_qasm reply: the stored circuit handle and its signature.
struct SubmitReply {
  std::uint32_t circuit_id = 0;
  std::uint32_t num_qubits = 0;
  std::uint32_t num_gates = 0;
  bool has_noise = false;
  std::vector<std::string> symbols;  // free symbols, ascending

  void encode(WireWriter& w) const;
  static SubmitReply decode(WireReader& r);
};

/// compile reply. `shared_cache_hit` reports that the plan came from
/// the store's plan cache, which every tenant session shares (no
/// staging or kernelization ran for this compile).
struct CompileReply {
  std::uint32_t compiled_id = 0;
  bool shared_cache_hit = false;
  std::vector<std::string> symbols;

  void encode(WireWriter& w) const;
  static CompileReply decode(WireReader& r);
};

/// run reply: the per-qubit observable summary plus a handle to the
/// retained result for follow-up `sample` calls. Doubles are the
/// engine's exact values — bit-identical to an in-process run().
struct RunReply {
  std::uint32_t result_id = 0;
  std::uint64_t seed = 0;
  double norm_sq = 0;
  std::vector<double> expectation_z;  // index = qubit

  void encode(WireWriter& w) const;
  static RunReply decode(WireReader& r);
};

/// One sweep point's summary (sweep results are not retained
/// server-side — a sweep's states would pin num_points * 2^n
/// amplitudes).
struct SweepPoint {
  double norm_sq = 0;
  std::vector<double> expectation_z;
};

/// run_noisy reply: the Monte-Carlo aggregate.
struct NoisyReply {
  std::uint64_t trajectories = 0;
  bool pauli_fast_path = false;
  double mean_weight = 0;
  std::vector<double> z_value;      // index = qubit
  std::vector<double> z_std_error;  // index = qubit
  std::vector<std::pair<std::uint64_t, double>> counts;  // basis, weight

  void encode(WireWriter& w) const;
  static NoisyReply decode(WireReader& r);
};

/// One row of list_sessions.
struct SessionInfo {
  std::uint64_t session_id = 0;
  std::string tenant;
  double idle_seconds = 0;
  double ttl_seconds = 0;
  std::uint32_t active = 0;   // scheduled or executing data ops
  std::uint32_t queued = 0;   // items waiting in the tenant's queue
  std::uint32_t circuits = 0;
  std::uint32_t compiled = 0;
  std::uint32_t results = 0;

  void encode(WireWriter& w) const;
  static SessionInfo decode(WireReader& r);
};

/// cache_stats reply: the store's plan cache, which every tenant
/// session shares, and the session store itself.
struct CacheStatsReply {
  // The store's shared plan cache.
  std::uint64_t shared_hits = 0;
  std::uint64_t shared_misses = 0;
  std::uint64_t shared_evictions = 0;
  std::uint32_t shared_entries = 0;
  std::uint64_t shared_resident_bytes = 0;
  // Session store occupancy.
  std::uint32_t sessions = 0;
  std::uint32_t session_capacity = 0;
  std::uint64_t sessions_purged = 0;

  void encode(WireWriter& w) const;
  static CacheStatsReply decode(WireReader& r);
};

/// One metric in a metrics reply. `kind` selects the meaningful
/// fields: 0 = counter (count), 1 = gauge (gauge), 2 = histogram
/// (count, sum, p50/p90/p99). The wire encoding is kind-dependent —
/// see docs/PROTOCOL.md.
struct MetricEntry {
  std::string name;
  std::uint8_t kind = 0;
  std::uint64_t count = 0;
  std::int64_t gauge = 0;
  double sum = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

/// metrics reply: the full registry snapshot, sorted by metric name.
struct MetricsReply {
  std::vector<MetricEntry> metrics;

  void encode(WireWriter& w) const;
  static MetricsReply decode(WireReader& r);
};
/// @}

/// Reads one frame payload. Returns false on EOF/error or when the
/// length prefix exceeds `max_bytes` (caller drops the connection).
bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::uint32_t max_bytes = kDefaultMaxFrameBytes);

/// Writes one frame (length prefix + payload) atomically with respect
/// to other write_frame calls on the same fd — callers serialize via
/// their own per-connection mutex. `timeout_ms` bounds each underlying
/// write_all (-1 = forever). Returns false when the peer died or
/// stopped reading past the deadline.
bool write_frame(int fd, const std::vector<std::uint8_t>& payload,
                 int timeout_ms = -1);

}  // namespace atlas::serve
