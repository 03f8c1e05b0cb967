#include "serve/server.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <utility>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "qasm/qasm.h"
#include "verify/verify.h"

namespace atlas::serve {

namespace {

bool is_data_op(Op op) {
  switch (op) {
    case Op::open_session:
    case Op::submit_qasm:
    case Op::compile:
    case Op::run:
    case Op::sweep:
    case Op::run_noisy:
    case Op::sample:
    case Op::close_session:
      return true;
    default:
      return false;
  }
}

bool is_known_op(std::uint16_t raw) {
  const Op op = static_cast<Op>(raw);
  switch (op) {
    case Op::open_session:
    case Op::submit_qasm:
    case Op::compile:
    case Op::run:
    case Op::sweep:
    case Op::run_noisy:
    case Op::sample:
    case Op::close_session:
    case Op::list_sessions:
    case Op::cache_stats:
    case Op::evict_session:
    case Op::drain:
    case Op::shutdown:
    case Op::metrics:
      return true;
  }
  return false;
}

/// Per-qubit <Z> summary attached to every run reply.
std::vector<double> all_expectation_z(const SimulationResult& result) {
  const int n = result.state.num_qubits();
  std::vector<double> z(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) z[static_cast<std::size_t>(q)] =
      result.expectation_z(q);
  return z;
}

}  // namespace

/// Carries one admitted data-plane request from the reader thread
/// through the dispatcher to its (exactly one) reply. Settling is
/// idempotent — whichever of handler success, handler failure, or the
/// last sweep point gets there first wins — and always releases the
/// tenant's admission slot and the session's purge guard.
struct Server::RequestContext {
  Server* server = nullptr;
  std::shared_ptr<Connection> conn;
  std::uint64_t request_id = 0;
  std::string tenant;
  std::shared_ptr<ServeSession> session;  // null for open_session
  /// True once enqueue_request() accepted this request. Only an
  /// admitted request owns an admission slot: a refusal or a
  /// pre-admission failure must not call request_done(), which would
  /// free a slot held by a *different* in-flight request and let the
  /// tenant's real concurrency creep past the bound. Written by the
  /// reader thread before the work item is published (the dispatcher's
  /// mutex orders it against worker reads).
  bool admitted = false;
  /// Stamp taken by the reader thread on arrival; finish() observes
  /// wire-to-reply latency into the tenant's histogram.
  std::int64_t start_ns = 0;
  std::atomic<bool> settled{false};

  ~RequestContext() {
    // A context dropped without a reply (server bug) must not leak the
    // admission slot.
    reply_error(Status::internal, "request dropped without a reply");
  }

  // finish() runs BEFORE the reply hits the wire: once a client has
  // seen a reply, its admission slot is guaranteed free, so a
  // pipelined follow-up request is never spuriously refused.
  void reply_ok(const std::vector<std::uint8_t>& body) {
    if (settled.exchange(true)) return;
    finish();
    server->send_reply(conn, request_id, Status::ok, body);
  }

  void reply_error(Status status, const std::string& message) {
    if (settled.exchange(true)) return;
    finish();
    server->send_error(conn, request_id, status, message);
  }

 private:
  void finish() {
    if (session != nullptr) {
      session->touch();
      session->end_work();
    }
    if (admitted) server->dispatcher_->request_done(tenant);
    static obs::Counter& requests = obs::counter(obs::names::kServeRequests);
    requests.inc();
    if (!tenant.empty() && start_ns != 0) {
      // Per-tenant wire-to-reply latency. Name lookup hits the registry
      // map, which is fine at request granularity (data-plane requests
      // do compiles and state-vector runs; a map lookup is noise).
      obs::histogram(obs::names::kServeTenantLatencyPrefix + tenant)
          .observe(static_cast<double>(obs::monotonic_ns() - start_ns) /
                   1e3);
    }
  }
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  store_ = std::make_unique<SessionStore>(config_.session, config_.store);
  dispatcher_ = std::make_unique<Dispatcher>(config_.workers,
                                             config_.max_pending_per_tenant);
}

Server::~Server() { stop(); }

void Server::start() {
  ATLAS_CHECK(!running_.load(), "Server::start() called twice");
  listener_ = tcp_listen(config_.host, config_.port, &port_);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd p{};
    p.fd = listener_.get();
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, 100);
    if (rc < 0 && errno != EINTR) break;

    // Reap connections whose readers have exited (client hangups) so a
    // long-lived daemon does not accumulate dead fds and threads.
    {
      MutexLock lock(conn_mu_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->dead.load() && (*it)->reader.joinable()) {
          (*it)->reader.join();
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (rc <= 0) continue;

    const int cfd = ::accept(listener_.get(), nullptr, nullptr);
    if (cfd < 0) continue;  // EAGAIN, EINTR, or a teardown race
    const int flags = ::fcntl(cfd, F_GETFL, 0);
    ::fcntl(cfd, F_SETFL, flags | O_NONBLOCK);
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = Fd(cfd);
    {
      MutexLock lock(conn_mu_);
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::vector<std::uint8_t> payload;
  static obs::Counter& bytes_in = obs::counter(obs::names::kServeBytesIn);
  while (running_.load(std::memory_order_acquire)) {
    if (!read_frame(conn->fd.get(), payload, config_.max_frame_bytes)) break;
    bytes_in.add(payload.size() + 4);  // +4: the length prefix
    if (!handle_frame(conn, std::move(payload))) break;
    payload.clear();
  }
  conn->dead.store(true);
}

bool Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          std::vector<std::uint8_t> payload) {
  std::uint64_t request_id = 0;
  std::uint16_t op_raw = 0;
  std::uint64_t session_id = 0;
  std::size_t header_size = 0;
  try {
    WireReader header(payload);
    request_id = header.u64();
    op_raw = header.u16();
    session_id = header.u64();
    header_size = payload.size() - header.remaining();
  } catch (const Error&) {
    // Too short even for a header: no request_id to address a reply
    // to. Drop the connection; the daemon lives on.
    return false;
  }

  if (!is_known_op(op_raw)) {
    send_error(conn, request_id, Status::invalid_argument,
               "unknown op " + std::to_string(op_raw));
    return true;
  }
  const Op op = static_cast<Op>(op_raw);

  if (!is_data_op(op)) {
    WireReader body(payload.data() + header_size,
                    payload.size() - header_size);
    handle_inline_op(conn, request_id, op, session_id, body);
    return true;
  }

  auto ctx = std::make_shared<RequestContext>();
  ctx->server = this;
  ctx->conn = conn;
  ctx->request_id = request_id;
  ctx->start_ns = obs::monotonic_ns();
  try {
    if (op == Op::open_session) {
      // Tenant comes from the request body; decode errors are answered
      // (invalid_argument), not fatal to the connection.
      WireReader body(payload.data() + header_size,
                      payload.size() - header_size);
      ctx->tenant = OpenSessionRequest::decode(body).tenant;
      ATLAS_CHECK_ARG(!ctx->tenant.empty(), "tenant name must not be empty");
    } else {
      ctx->session = store_->get(session_id);
      ctx->tenant = ctx->session->tenant();
      // Pin the session against TTL purge from admission to reply.
      ctx->session->begin_work();
    }
  } catch (const Error& e) {
    ctx->reply_error(status_from(e.code()), e.what());
    return true;
  }

  auto body_buf = std::make_shared<std::vector<std::uint8_t>>(
      payload.begin() + static_cast<std::ptrdiff_t>(header_size),
      payload.end());
  try {
    // Marked before the call: on success the work item (which may
    // settle the context from a worker thread at any point after) must
    // already see the slot as owned. enqueue_request only throws
    // before publishing the work, so the rollback below cannot race a
    // running handler.
    ctx->admitted = true;
    dispatcher_->enqueue_request(
        ctx->tenant, [this, ctx, op, body_buf, session_id]() mutable {
          WireReader body(*body_buf);
          try {
            switch (op) {
              case Op::open_session: {
                std::uint64_t sid = 0;
                ctx->reply_ok(do_open_session(sid, body));
                break;
              }
              case Op::submit_qasm:
                ctx->reply_ok(do_submit_qasm(*ctx->session, body));
                break;
              case Op::compile:
                ctx->reply_ok(do_compile(*ctx->session, body));
                break;
              case Op::run:
                ctx->reply_ok(do_run(*ctx->session, body));
                break;
              case Op::sweep:
                do_sweep(ctx, ctx->session, body);
                break;
              case Op::run_noisy:
                ctx->reply_ok(do_run_noisy(*ctx->session, body));
                break;
              case Op::sample:
                ctx->reply_ok(do_sample(*ctx->session, body));
                break;
              case Op::close_session:
                store_->erase(session_id);
                ctx->reply_ok({});
                break;
              default:
                ctx->reply_error(Status::internal, "unroutable op");
            }
          } catch (const Error& e) {
            ctx->reply_error(status_from(e.code()), e.what());
          } catch (const std::exception& e) {
            ctx->reply_error(Status::internal, e.what());
          }
        });
  } catch (const Error& e) {
    // Admission refused: per-tenant bound (capacity) or draining
    // (unavailable). This request never took a slot — un-mark it so
    // finish() leaves the tenant's slots to the requests that own them.
    ctx->admitted = false;
    static obs::Counter& refused =
        obs::counter(obs::names::kServeAdmissionRefused);
    refused.inc();
    ctx->reply_error(status_from(e.code()), e.what());
  }
  return true;
}

void Server::handle_inline_op(const std::shared_ptr<Connection>& conn,
                              std::uint64_t request_id, Op op,
                              std::uint64_t session_id, WireReader& body) {
  (void)body;  // no inline op reads a body today
  try {
    switch (op) {
      case Op::list_sessions: {
        WireWriter w;
        const auto sessions = store_->snapshot();
        w.u32(static_cast<std::uint32_t>(sessions.size()));
        for (const auto& s : sessions) {
          SessionInfo info;
          info.session_id = s->id();
          info.tenant = s->tenant();
          info.idle_seconds = s->idle_seconds();
          info.ttl_seconds = s->ttl_seconds();
          info.active = static_cast<std::uint32_t>(
              s->active() < 0 ? 0 : s->active());
          info.queued =
              static_cast<std::uint32_t>(dispatcher_->queued(s->tenant()));
          info.circuits = s->num_circuits();
          info.compiled = s->num_compiled();
          info.results = s->num_results();
          info.encode(w);
        }
        send_reply(conn, request_id, Status::ok, w.bytes());
        break;
      }
      case Op::cache_stats: {
        const PlanCacheStats shared = store_->plan_cache_stats();
        CacheStatsReply reply;
        reply.shared_hits = shared.hits;
        reply.shared_misses = shared.misses;
        reply.shared_evictions = shared.evictions;
        reply.shared_entries = static_cast<std::uint32_t>(shared.size);
        reply.shared_resident_bytes = shared.resident_bytes;
        reply.sessions = static_cast<std::uint32_t>(store_->size());
        reply.session_capacity =
            static_cast<std::uint32_t>(store_->limits().max_sessions);
        reply.sessions_purged = store_->purged_total();
        WireWriter w;
        reply.encode(w);
        send_reply(conn, request_id, Status::ok, w.bytes());
        break;
      }
      case Op::evict_session: {
        store_->erase(session_id);
        send_reply(conn, request_id, Status::ok, {});
        break;
      }
      case Op::drain: {
        // Blocks this reader until in-flight work finishes — drain is
        // an operator action, and the caller wants completion, not an
        // acknowledgment.
        drain();
        send_reply(conn, request_id, Status::ok, {});
        break;
      }
      case Op::shutdown: {
        send_reply(conn, request_id, Status::ok, {});
        MutexLock lock(shutdown_mu_);
        shutdown_requested_ = true;
        shutdown_cv_.notify_all();
        break;
      }
      case Op::metrics: {
        const obs::MetricsReport report =
            obs::MetricsRegistry::instance().snapshot();
        MetricsReply reply;
        reply.metrics.reserve(report.entries.size());
        for (const obs::MetricValue& v : report.entries) {
          MetricEntry m;
          m.name = v.name;
          m.kind = static_cast<std::uint8_t>(v.kind);
          m.count = v.count;
          m.gauge = v.gauge;
          m.sum = v.sum;
          m.p50 = v.p50;
          m.p90 = v.p90;
          m.p99 = v.p99;
          reply.metrics.push_back(std::move(m));
        }
        WireWriter w;
        reply.encode(w);
        send_reply(conn, request_id, Status::ok, w.bytes());
        break;
      }
      default:
        send_error(conn, request_id, Status::internal, "unroutable op");
    }
  } catch (const Error& e) {
    send_error(conn, request_id, status_from(e.code()), e.what());
  } catch (const std::exception& e) {
    send_error(conn, request_id, Status::internal, e.what());
  }
}

std::vector<std::uint8_t> Server::do_open_session(
    std::uint64_t& session_id_out, WireReader& body) {
  const OpenSessionRequest q = OpenSessionRequest::decode(body);
  SessionConfig cfg = config_.session;
  if (q.local_qubits >= 0) cfg.cluster.local_qubits = q.local_qubits;
  if (q.regional_qubits >= 0) cfg.cluster.regional_qubits = q.regional_qubits;
  if (q.global_qubits >= 0) cfg.cluster.global_qubits = q.global_qubits;
  if (q.gpus_per_node >= 0) cfg.cluster.gpus_per_node = q.gpus_per_node;
  if (q.opt_level >= 0) cfg.opt_level = q.opt_level;
  if (q.seed != 0) cfg.seed = q.seed;
  const auto session =
      store_->open(q.tenant, cfg, std::chrono::milliseconds(q.ttl_ms));
  session_id_out = session->id();
  WireWriter w;
  w.u64(session->id());
  return w.take();
}

std::vector<std::uint8_t> Server::do_submit_qasm(ServeSession& session,
                                                 WireReader& body) {
  const std::string source = body.str();
  qasm::NoisyParse parsed = qasm::parse_with_noise(source);
  // Data-plane ingest check: the parser guarantees well-formed syntax,
  // the verifier guarantees the IR invariants the engine assumes
  // (docs/VERIFY.md). Caller-supplied artifact, so invalid_argument ->
  // Status::invalid_argument on the wire.
  const auto verify_level = session.session().config().verify_level;
  verify::check(verify::verify_circuit(parsed.circuit, verify_level),
                ErrorCode::invalid_argument);
  if (!parsed.noise.empty())
    verify::check(verify::verify_noise_model(parsed.noise,
                                             parsed.circuit.num_qubits(),
                                             verify_level),
                  ErrorCode::invalid_argument);
  StoredCircuit stored;
  stored.symbols = parsed.circuit.symbols();
  stored.has_noise = !parsed.noise.empty();
  stored.circuit = std::move(parsed.circuit);
  stored.noise = std::move(parsed.noise);

  SubmitReply reply;
  reply.num_qubits = static_cast<std::uint32_t>(stored.circuit.num_qubits());
  reply.num_gates = static_cast<std::uint32_t>(stored.circuit.num_gates());
  reply.has_noise = stored.has_noise;
  reply.symbols = stored.symbols;
  reply.circuit_id = session.add_circuit(std::move(stored));
  WireWriter w;
  reply.encode(w);
  return w.take();
}

std::vector<std::uint8_t> Server::do_compile(ServeSession& session,
                                             WireReader& body) {
  const std::uint32_t circuit_id = body.u32();
  // The session compiles through the store's shared plan cache: a hit
  // reuses a plan any tenant built, while the slot table and symbols
  // are always this tenant's own.
  auto compiled = std::make_shared<const CompiledCircuit>(
      session.session().compile(session.circuit(circuit_id)->circuit));

  CompileReply reply;
  reply.shared_cache_hit = compiled->diagnostics().plan_cached;
  reply.symbols = compiled->symbols();
  reply.compiled_id = session.add_compiled(std::move(compiled));
  WireWriter w;
  reply.encode(w);
  return w.take();
}

std::vector<std::uint8_t> Server::do_run(ServeSession& session,
                                         WireReader& body) {
  const std::uint32_t compiled_id = body.u32();
  const std::uint32_t num_values = body.count(8);
  std::vector<double> values(num_values);
  for (auto& v : values) v = body.f64();

  const auto compiled = session.compiled(compiled_id);
  SimulationResult result = session.session().run(*compiled, values);

  RunReply reply;
  reply.seed = result.seed;
  reply.norm_sq = result.norm_sq();
  reply.expectation_z = all_expectation_z(result);
  reply.result_id = session.add_result(std::move(result));
  WireWriter w;
  reply.encode(w);
  return w.take();
}

void Server::do_sweep(const std::shared_ptr<RequestContext>& ctx,
                      const std::shared_ptr<ServeSession>& session,
                      WireReader& body) {
  const std::uint32_t compiled_id = body.u32();
  const std::uint32_t num_points = body.u32();
  // num_points points of point_size doubles each follow.
  const std::uint32_t point_size = body.count(8ull * num_points);
  const auto compiled = session->compiled(compiled_id);
  // Zero-size points carry no bytes, so the frame cannot bound
  // num_points; the reply must fit a frame, and each of its points is
  // an f64 norm, a u32 count and one f64 per qubit.
  ATLAS_CHECK_ARG(num_points == 0 || point_size == compiled->symbols().size(),
                  "sweep points carry " << point_size
                                        << " values, the circuit has "
                                        << compiled->symbols().size()
                                        << " symbols");
  const std::uint64_t reply_bytes =
      4 + std::uint64_t{num_points} *
              (12 + 8 * static_cast<std::uint64_t>(compiled->num_qubits()));
  ATLAS_CHECK_ARG(reply_bytes <= config_.max_frame_bytes,
                  "a sweep of " << num_points << " points needs a "
                                << reply_bytes
                                << "-byte reply, over the frame limit of "
                                << config_.max_frame_bytes << " bytes");
  auto points = std::make_shared<std::vector<std::vector<double>>>();
  points->reserve(num_points);
  for (std::uint32_t i = 0; i < num_points; ++i) {
    std::vector<double> point(point_size);
    for (auto& v : point) v = body.f64();
    points->push_back(std::move(point));
  }

  if (num_points == 0) {
    WireWriter w;
    w.u32(0);
    ctx->reply_ok(w.bytes());
    return;
  }

  // Fan one dispatcher item per point under this tenant's queue: with
  // other tenants enqueued, the round-robin cursor interleaves their
  // work between points instead of running the sweep to completion
  // first. The last point to finish assembles and sends the reply.
  struct SweepState {
    std::vector<SweepPoint> results;
    std::atomic<std::size_t> remaining;
    Mutex err_mu;
    std::string error ATLAS_GUARDED_BY(err_mu);
    Status error_status ATLAS_GUARDED_BY(err_mu) = Status::ok;
  };
  auto state = std::make_shared<SweepState>();
  state->results.resize(num_points);
  state->remaining.store(num_points);

  for (std::uint32_t i = 0; i < num_points; ++i) {
    dispatcher_->enqueue_internal(
        ctx->tenant, [this, ctx, session, compiled, points, state, i] {
          try {
            const SimulationResult result =
                session->session().run(*compiled, (*points)[i]);
            state->results[i].norm_sq = result.norm_sq();
            state->results[i].expectation_z = all_expectation_z(result);
          } catch (const Error& e) {
            MutexLock lock(state->err_mu);
            if (state->error_status == Status::ok) {
              state->error_status = status_from(e.code());
              state->error = e.what();
            }
          } catch (const std::exception& e) {
            MutexLock lock(state->err_mu);
            if (state->error_status == Status::ok) {
              state->error_status = Status::internal;
              state->error = e.what();
            }
          }
          if (state->remaining.fetch_sub(1) != 1) return;
          if (state->error_status != Status::ok) {
            ctx->reply_error(state->error_status, state->error);
            return;
          }
          WireWriter w;
          w.u32(static_cast<std::uint32_t>(state->results.size()));
          for (const SweepPoint& p : state->results) {
            w.f64(p.norm_sq);
            w.u32(static_cast<std::uint32_t>(p.expectation_z.size()));
            for (double z : p.expectation_z) w.f64(z);
          }
          ctx->reply_ok(w.bytes());
        });
  }
}

std::vector<std::uint8_t> Server::do_run_noisy(ServeSession& session,
                                               WireReader& body) {
  const std::uint32_t circuit_id = body.u32();
  noise::NoisyRunOptions options;
  options.trajectories = static_cast<int>(body.u32());
  options.shots = static_cast<int>(body.u32());
  const std::uint32_t num_values = body.count(8);
  std::vector<double> values(num_values);
  for (auto& v : values) v = body.f64();

  const auto stored = session.circuit(circuit_id);
  if (num_values != 0) {
    ATLAS_CHECK_ARG(values.size() == stored->symbols.size(),
                    "run_noisy expects " << stored->symbols.size()
                                         << " parameter values, got "
                                         << values.size());
    for (std::size_t k = 0; k < values.size(); ++k) {
      options.binding.set(stored->symbols[k], values[k]);
    }
  }

  const noise::NoisyResult result =
      session.session().run_noisy(stored->circuit, stored->noise, options);

  NoisyReply reply;
  reply.trajectories = result.trajectories();
  reply.pauli_fast_path = result.pauli_fast_path();
  reply.mean_weight = result.mean_weight();
  const int n = result.num_qubits();
  reply.z_value.resize(static_cast<std::size_t>(n));
  reply.z_std_error.resize(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    const noise::Estimate e = result.expectation_z(q);
    reply.z_value[static_cast<std::size_t>(q)] = e.value;
    reply.z_std_error[static_cast<std::size_t>(q)] = e.std_error;
  }
  reply.counts.reserve(result.counts().size());
  for (const auto& [basis, weight] : result.counts()) {
    reply.counts.emplace_back(static_cast<std::uint64_t>(basis), weight);
  }
  WireWriter w;
  reply.encode(w);
  return w.take();
}

std::vector<std::uint8_t> Server::do_sample(ServeSession& session,
                                            WireReader& body) {
  const std::uint32_t result_id = body.u32();
  const std::uint32_t shots = body.u32();
  ATLAS_CHECK_ARG(shots > 0 && shots <= (1u << 24),
                  "shots must be in [1, 2^24], got " << shots);
  const std::vector<Index> samples =
      session.sample_result(result_id, static_cast<int>(shots));
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(samples.size()));
  for (Index s : samples) w.u64(static_cast<std::uint64_t>(s));
  return w.take();
}

void Server::send_reply(const std::shared_ptr<Connection>& conn,
                        std::uint64_t request_id, Status status,
                        const std::vector<std::uint8_t>& body) {
  WireWriter w;
  w.u64(request_id);
  w.u16(static_cast<std::uint16_t>(status));
  std::vector<std::uint8_t> frame = w.take();
  frame.insert(frame.end(), body.begin(), body.end());
  static obs::Counter& bytes_out = obs::counter(obs::names::kServeBytesOut);
  bytes_out.add(frame.size() + 4);  // +4: the length prefix
  MutexLock lock(conn->write_mu);
  if (conn->dead.load()) return;
  if (!write_frame(conn->fd.get(), frame, config_.write_timeout_ms)) {
    // Vanished or stalled peer: half-close so the connection's parked
    // reader wakes and exits instead of waiting on a dead client.
    conn->dead.store(true);
    shutdown_fd(conn->fd.get());
  }
}

void Server::send_error(const std::shared_ptr<Connection>& conn,
                        std::uint64_t request_id, Status status,
                        const std::string& message) {
  WireWriter w;
  w.str(message);
  send_reply(conn, request_id, status, w.bytes());
}

void Server::drain() {
  draining_.store(true, std::memory_order_release);
  dispatcher_->drain();
}

void Server::stop() {
  {
    MutexLock lock(shutdown_mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_cv_.notify_all();
  }
  // Let in-flight work reply over still-open connections first.
  drain();
  running_.store(false, std::memory_order_release);
  shutdown_fd(listener_.get());
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<std::shared_ptr<Connection>> conns;
  {
    MutexLock lock(conn_mu_);
    conns.swap(connections_);
  }
  for (const auto& conn : conns) shutdown_fd(conn->fd.get());
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  dispatcher_->stop();
}

bool Server::wait_shutdown() {
  MutexLock lock(shutdown_mu_);
  shutdown_cv_.wait(shutdown_mu_, [this]() ATLAS_REQUIRES(shutdown_mu_) {
    return shutdown_requested_ || stopped_;
  });
  return shutdown_requested_;
}

}  // namespace atlas::serve
