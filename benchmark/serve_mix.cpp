// serve_mix: an embedded serve::Server on loopback (2 workers, default
// single-threaded tenant sessions, L=8, R=1, G=1) and three client
// threads, one tenant and one connection each, in a closed loop. Every
// client cycles through 50 requests in a seeded order: 40 run, 8 sweep
// of 8 points, 1 run_noisy of 16 trajectories, and 1 submit_qasm +
// compile of a structurally new 10-qubit circuit (a shared plan-cache
// miss, counted as 2 requests). Engine work per request is about a
// millisecond, so the protocol, dispatcher and session store dominate,
// and the compiles put plan-cache writes next to cache-hit runs. Every
// 32 cycles a tenant reopens its session (not counted as requests).

#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <thread>

#include "circuits/families.h"
#include "common/rng.h"
#include "obs/names.h"
#include "qasm/qasm.h"
#include "serve/client.h"
#include "serve/server.h"
#include "walk.h"

namespace bench {
namespace {

namespace serve = atlas::serve;

constexpr int kClients = 3;
constexpr int kQubits = 10;
constexpr int kAnsatzLayers = 2;
constexpr int kSweepPoints = 8;
constexpr int kNoisyTrajectories = 16;
/// Gates of each new circuit a cycle submits.
constexpr int kNewCircuitGates = 40;
/// Every cycle stores one more circuit and compiled handle in the
/// tenant's session. After this many cycles the tenant closes the
/// session and opens a fresh one, as the store's per-session bound asks
/// of clients, so the stored state stays the same for any run length
/// and any speed, under the default bound.
constexpr std::uint64_t kCyclesPerSession = 32;

enum Kind { kRun, kSweep, kRunNoisy, kSubmit, kCompile, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"run", "sweep", "run_noisy",
                                               "submit_qasm", "compile"};
constexpr const char* kSpanNames[kNumKinds] = {
    "serve.run", "serve.sweep", "serve.run_noisy", "serve.submit_qasm",
    "serve.compile"};

atlas::SessionConfig tenant_config() {
  serve::ServerConfig defaults;
  atlas::SessionConfig cfg = defaults.session;
  cfg.cluster.local_qubits = 8;
  cfg.cluster.regional_qubits = 1;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 2;
  return cfg;
}

std::string ansatz_qasm() {
  std::string s = "OPENQASM 3;\ninclude \"stdgates.inc\";\n";
  for (int i = 0; i < kAnsatzLayers * kQubits; ++i)
    s += "input float a" + std::to_string(i) + ";\n";
  s += "qreg q[" + std::to_string(kQubits) + "];\n";
  for (int l = 0; l < kAnsatzLayers; ++l) {
    for (int q = 0; q < kQubits; ++q)
      s += "ry(a" + std::to_string(l * kQubits + q) + ") q[" +
           std::to_string(q) + "];\n";
    for (int q = 0; q + 1 < kQubits; ++q)
      s += "cx q[" + std::to_string(q) + "],q[" + std::to_string(q + 1) +
           "];\n";
  }
  return s;
}

std::string noisy_qasm() {
  std::string s =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
      "#pragma atlas noise depolarizing(0.001) all\n";
  s += "qreg q[" + std::to_string(kQubits) + "];\nh q[0];\n";
  for (int q = 0; q + 1 < kQubits; ++q)
    s += "cx q[" + std::to_string(q) + "],q[" + std::to_string(q + 1) + "];\n";
  for (int q = 0; q < kQubits; ++q)
    s += "rz(0." + std::to_string(q + 1) + ") q[" + std::to_string(q) + "];\n";
  return s;
}

std::string new_circuit_qasm(std::uint64_t seed) {
  return atlas::qasm::to_qasm(
      atlas::circuits::random_circuit(kQubits, kNewCircuitGates, seed));
}

std::vector<double> angles(atlas::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(0, 2 * std::numbers::pi);
  return v;
}

/// One tenant: a connection, its session, and its stored handles.
struct Tenant {
  std::unique_ptr<serve::Client> client;
  std::string name;
  std::uint64_t sid = 0;
  std::uint32_t ansatz = 0;  ///< compiled id
  std::uint32_t noisy = 0;   ///< circuit id
  std::size_t symbols = 0;
  /// Cycles run on the current session.
  std::uint64_t cycles = 0;

  /// Opens a session holding the compiled ansatz and the noisy circuit,
  /// and runs the ansatz once.
  void open_session() {
    serve::OpenSessionRequest open;
    open.tenant = name;
    sid = client->open_session(open);
    const serve::CompileReply cc =
        client->compile(sid, client->submit_qasm(sid, ansatz_qasm()).circuit_id);
    ansatz = cc.compiled_id;
    symbols = cc.symbols.size();
    noisy = client->submit_qasm(sid, noisy_qasm()).circuit_id;
    (void)client->run(sid, ansatz, std::vector<double>(symbols, 0.5));
    cycles = 0;
  }
};

Tenant open_tenant(int port, int index) {
  Tenant t;
  t.client = std::make_unique<serve::Client>("127.0.0.1", port);
  t.name = "tenant-" + std::to_string(index);
  t.open_session();
  return t;
}

/// The server and its tenants; tenants close before the server stops.
struct Deployment {
  std::unique_ptr<serve::Server> server;
  std::vector<Tenant> tenants;

  void stop() {
    tenants.clear();
    server.reset();
  }
  void start() {
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.session = tenant_config();
    server = std::make_unique<serve::Server>(cfg);
    server->start();
    for (int c = 0; c < kClients; ++c)
      tenants.push_back(open_tenant(server->port(), c));
  }
  ~Deployment() { stop(); }
};

/// Per-client loop results.
struct Samples {
  std::vector<std::vector<double>> by_kind =
      std::vector<std::vector<double>>(kNumKinds);
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const Samples& o) {
    for (std::size_t k = 0; k < by_kind.size(); ++k)
      by_kind[k].insert(by_kind[k].end(), o.by_kind[k].begin(),
                        o.by_kind[k].end());
    requests += o.requests;
    failed += o.failed;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

/// Closed-loop client: cycles of 50 requests in a seeded order until
/// `deadline`, with a fresh session every kCyclesPerSession cycles.
/// Each request is one span when `rec` records.
void drive(Tenant& t, int client, std::uint64_t seed, std::uint64_t phase,
           double deadline, Samples& out, Recorder& rec) {
  std::vector<Kind> cycle;
  cycle.insert(cycle.end(), 40, kRun);
  cycle.insert(cycle.end(), 8, kSweep);
  cycle.push_back(kRunNoisy);
  cycle.push_back(kSubmit);  // submit_qasm + compile
  std::uint64_t op = 0;
  for (std::uint64_t n = 0; now_s() < deadline; ++n) {
    const std::uint64_t stream = (phase << 48) ^
                                 (static_cast<std::uint64_t>(client) << 32) ^ n;
    atlas::Rng rng = atlas::Rng::for_stream(seed, stream);
    for (std::size_t i = cycle.size(); i > 1; --i)
      std::swap(cycle[i - 1], cycle[rng.index(i)]);
    for (Kind kind : cycle) {
      if (now_s() >= deadline) break;
      try {
        const auto timed = [&](Kind k, const auto& call) {
          Recorder::Scope s(rec, kSpanNames[k], ++op);
          call();
          out.by_kind[k].push_back(s.end());
          ++out.requests;
        };
        switch (kind) {
          case kRun: {
            const std::vector<double> v = angles(rng, t.symbols);
            serve::RunReply reply;
            timed(kRun, [&] { reply = t.client->run(t.sid, t.ansatz, v); });
            if (std::abs(reply.norm_sq - 1) > 1e-9)
              throw std::runtime_error("run reply norm");
            break;
          }
          case kSweep: {
            std::vector<std::vector<double>> pts;
            for (int p = 0; p < kSweepPoints; ++p)
              pts.push_back(angles(rng, t.symbols));
            std::vector<serve::SweepPoint> reply;
            timed(kSweep, [&] { reply = t.client->sweep(t.sid, t.ansatz, pts); });
            if (reply.size() != pts.size())
              throw std::runtime_error("sweep reply size");
            break;
          }
          case kRunNoisy: {
            serve::NoisyReply reply;
            timed(kRunNoisy, [&] {
              reply = t.client->run_noisy(t.sid, t.noisy, kNoisyTrajectories);
            });
            if (reply.trajectories != kNoisyTrajectories)
              throw std::runtime_error("run_noisy trajectory count");
            break;
          }
          default: {
            const std::string src = new_circuit_qasm(rng.engine()());
            serve::SubmitReply sub;
            timed(kSubmit, [&] { sub = t.client->submit_qasm(t.sid, src); });
            timed(kCompile, [&] { (void)t.client->compile(t.sid, sub.circuit_id); });
            break;
          }
        }
      } catch (const std::exception& e) {
        ++out.failed;
        if (out.errors.size() < 4) out.errors.push_back(e.what());
      }
    }
    if (++t.cycles < kCyclesPerSession) continue;
    try {
      t.client->close_session(t.sid);
      t.open_session();
    } catch (const std::exception& e) {
      ++out.failed;
      if (out.errors.size() < 4) out.errors.push_back(e.what());
    }
  }
}

/// Runs every tenant's loop on its own thread for `seconds`; returns
/// the wall time from start to the last thread's end.
double drive_all(Deployment& d, const Options& opt, std::uint64_t phase,
                 double seconds, std::vector<Samples>& samples, Recorder& rec) {
  samples.assign(kClients, Samples{});
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      drive(d.tenants[static_cast<std::size_t>(c)], c, opt.seed, phase,
            t0 + seconds, samples[static_cast<std::size_t>(c)], rec);
    });
  for (std::thread& th : threads) th.join();
  return now_s() - t0;
}

void count(Report& r, const std::vector<Samples>& samples) {
  for (const Samples& s : samples) {
    r.attempted += s.requests + s.failed;
    r.failed += s.failed;
    if (s.failed > 0) r.correct = false;
    for (const std::string& e : s.errors)
      std::fprintf(stderr, "REQUEST FAILED: %s\n", e.c_str());
  }
}

/// Sampled wire replies against the same calls made in-process.
void checks(Report& r, Tenant& t, std::uint64_t seed) {
  atlas::Session local(tenant_config());
  const atlas::CompiledCircuit cc =
      local.compile(atlas::qasm::parse(ansatz_qasm()));
  atlas::Rng rng = atlas::Rng::for_stream(seed, 77);

  const std::vector<double> v = angles(rng, t.symbols);
  const serve::RunReply run = t.client->run(t.sid, t.ansatz, v);
  const atlas::SimulationResult res = local.run(cc, v);
  bool same = run.seed == res.seed && run.norm_sq == res.norm_sq();
  for (int q = 0; q < kQubits; ++q)
    same = same && run.expectation_z[static_cast<std::size_t>(q)] ==
                       res.expectation_z(q);
  r.check(same, "wire run reply differs from Session::run");

  std::vector<std::vector<double>> pts;
  for (int p = 0; p < kSweepPoints; ++p) pts.push_back(angles(rng, t.symbols));
  const std::vector<serve::SweepPoint> wire = t.client->sweep(t.sid, t.ansatz, pts);
  const std::vector<atlas::SimulationResult> mine = local.sweep(cc, pts);
  same = wire.size() == mine.size();
  for (std::size_t i = 0; same && i < wire.size(); ++i) {
    same = wire[i].norm_sq == mine[i].norm_sq();
    for (int q = 0; q < kQubits; ++q)
      same = same && wire[i].expectation_z[static_cast<std::size_t>(q)] ==
                         mine[i].expectation_z(q);
  }
  r.check(same, "wire sweep reply differs from Session::sweep");

  const atlas::qasm::NoisyParse noisy = atlas::qasm::parse_with_noise(noisy_qasm());
  atlas::noise::NoisyRunOptions o;
  o.trajectories = kNoisyTrajectories;
  const atlas::noise::NoisyResult nres =
      local.run_noisy(noisy.circuit, noisy.noise, o);
  const serve::NoisyReply nwire =
      t.client->run_noisy(t.sid, t.noisy, kNoisyTrajectories);
  same = nwire.trajectories == nres.trajectories() &&
         nwire.mean_weight == nres.mean_weight();
  for (int q = 0; q < kQubits; ++q) {
    const atlas::noise::Estimate e = nres.expectation_z(q);
    same = same && nwire.z_value[static_cast<std::size_t>(q)] == e.value &&
           nwire.z_std_error[static_cast<std::size_t>(q)] == e.std_error;
  }
  r.check(same, "wire run_noisy reply differs from Session::run_noisy");
}

/// Server-side sums read over the wire.
struct ServerCounters {
  double queue_wait_us = 0, queued_items = 0, latency_us = 0, bytes_in = 0,
         bytes_out = 0, requests = 0, refused = 0, shared_hits = 0,
         shared_misses = 0;

  static ServerCounters read(serve::Client& client, Report* r = nullptr) {
    namespace names = atlas::obs::names;
    ServerCounters c;
    const std::string latency_prefix = names::kServeTenantLatencyPrefix;
    for (const serve::MetricEntry& m : client.metrics().metrics) {
      const double count = static_cast<double>(m.count);
      if (m.name == names::kServeQueueWaitUs) {
        c.queue_wait_us = m.sum;
        c.queued_items = count;
      }
      if (m.name.rfind(latency_prefix, 0) == 0) c.latency_us += m.sum;
      if (r != nullptr && m.kind == 2 &&
          (m.name == names::kServeQueueWaitUs ||
           m.name.rfind(latency_prefix, 0) == 0)) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-28s n=%-6llu p50=%.4g ms  p99=%.4g ms (server)",
                      m.name.c_str(), static_cast<unsigned long long>(m.count),
                      m.p50 / 1e3, m.p99 / 1e3);
        r->note(line);
      }
      if (m.name == names::kServeBytesIn) c.bytes_in = count;
      if (m.name == names::kServeBytesOut) c.bytes_out = count;
      if (m.name == names::kServeRequests) c.requests = count;
      if (m.name == names::kServeAdmissionRefused) c.refused = count;
    }
    const serve::CacheStatsReply cache = client.cache_stats();
    c.shared_hits = static_cast<double>(cache.shared_hits);
    c.shared_misses = static_cast<double>(cache.shared_misses);
    return c;
  }
};

/// The traced run's in-process replay of each request kind through a
/// Session with the tenants' configuration: engine latency per kind,
/// compile layers, and walked runs.
void engine_replay(const Options& opt, Report& r, Recorder& rec,
                   Layers& layers, std::vector<std::vector<double>>& engine) {
  atlas::Session local(tenant_config());
  const atlas::CompiledCircuit cc =
      local.compile(atlas::qasm::parse(ansatz_qasm()));
  const atlas::qasm::NoisyParse noisy = atlas::qasm::parse_with_noise(noisy_qasm());
  atlas::noise::NoisyRunOptions o;
  o.trajectories = kNoisyTrajectories;
  atlas::Rng rng = atlas::Rng::for_stream(opt.seed, 99);
  engine.assign(kNumKinds, {});
  Counters counters;
  double runs = 0;
  const double kernels_per_run = plan_kernels(*cc.plan());
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::vector<double> v = angles(rng, cc.symbols().size());
    const Counters c0 = Counters::read(local);
    double t0 = now_s();
    const atlas::SimulationResult res = local.run(cc, v);
    engine[kRun].push_back(now_s() - t0);
    counters.add_delta(c0, Counters::read(local));
    runs += 1;
    r.check(same_state(walk(local, cc, v, layers, rec, i), res.state),
            "traced walk differs from Session::run");
    if (i % 5 != 0) continue;
    std::vector<std::vector<double>> pts;
    for (int p = 0; p < kSweepPoints; ++p)
      pts.push_back(angles(rng, cc.symbols().size()));
    t0 = now_s();
    (void)local.sweep(cc, pts);
    engine[kSweep].push_back(now_s() - t0);
    if (i % 20 != 0) continue;
    t0 = now_s();
    (void)local.run_noisy(noisy.circuit, noisy.noise, o);
    engine[kRunNoisy].push_back(now_s() - t0);
    const std::string src = new_circuit_qasm(rng.engine()());
    t0 = now_s();
    const atlas::qasm::NoisyParse parsed = atlas::qasm::parse_with_noise(src);
    engine[kSubmit].push_back(now_s() - t0);
    t0 = now_s();
    const atlas::CompiledCircuit fresh = local.compile(parsed.circuit);
    engine[kCompile].push_back(now_s() - t0);
    layers.add_compile(fresh);
  }
  report_counters(r, counters, runs, runs * kernels_per_run, runs);
}

}  // namespace

void serve_mix(const Options& opt, Report& r, Recorder& rec) {
  Deployment d;
  Pace pace;
  const std::vector<double> setups = time_setups(
      pace, [&] { d.stop(); }, [&] { d.start(); });
  Recorder off(false);

  if (!opt.trace) {
    checks(r, d.tenants.front(), opt.seed);
    // One-second slices of load with the pace loop timed between them,
    // on an idle server.
    std::vector<Samples> samples(kClients);
    double wall = 0;
    for (std::uint64_t slice = 0; wall < opt.seconds; ++slice) {
      pace.sample();
      std::vector<Samples> part;
      wall += drive_all(d, opt, slice, std::min(1.0, opt.seconds - wall),
                        part, off);
      for (std::size_t c = 0; c < samples.size(); ++c) samples[c].add(part[c]);
    }
    count(r, samples);
    std::vector<double> all;
    for (int k = 0; k < kNumKinds; ++k) {
      std::vector<double> kind;
      for (const Samples& s : samples) {
        const std::vector<double>& v = s.by_kind[static_cast<std::size_t>(k)];
        kind.insert(kind.end(), v.begin(), v.end());
      }
      note_sample(r, std::string("request.") + kKindNames[k], kind);
      all.insert(all.end(), kind.begin(), kind.end());
    }
    note_sample(r, "request", all);
    end_to_end(r, pace, setups, static_cast<double>(all.size()), wall);
    return;
  }

  // Traced: half the time untraced, half with a span per request (the
  // difference is the tracing overhead), then the in-process replay.
  serve::Client& probe = *d.tenants.front().client;
  const ServerCounters before = ServerCounters::read(probe);
  std::vector<Samples> plain, traced;
  const double plain_s = drive_all(d, opt, 1, opt.seconds / 2, plain, off);
  const double traced_s = drive_all(d, opt, 2, opt.seconds / 2, traced, rec);
  const ServerCounters after = ServerCounters::read(probe, &r);
  count(r, plain);
  count(r, traced);
  double plain_n = 0, traced_n = 0;
  for (const Samples& s : plain) plain_n += static_cast<double>(s.requests);
  for (const Samples& s : traced) traced_n += static_cast<double>(s.requests);
  report_overhead(r, traced_s / traced_n, plain_s / plain_n);

  Layers layers;
  std::vector<std::vector<double>> engine;
  engine_replay(opt, r, rec, layers, engine);
  layers.report(r, opt.stream_gbps);
  std::vector<double> all;
  for (int k = 0; k < kNumKinds; ++k) {
    std::vector<double> client;
    for (const Samples& s : plain)
      client.insert(client.end(), s.by_kind[static_cast<std::size_t>(k)].begin(),
                    s.by_kind[static_cast<std::size_t>(k)].end());
    all.insert(all.end(), client.begin(), client.end());
    const double engine_p50 = median(engine[static_cast<std::size_t>(k)]);
    note_sample(r, std::string("client.") + kKindNames[k], client);
    note_sample(r, std::string("engine.") + kKindNames[k],
                engine[static_cast<std::size_t>(k)]);
    r.set(std::string("serve.client_engine_ratio.") + kKindNames[k],
          engine_p50 > 0 ? median(client) / engine_p50 : 0, "x");
  }
  report_tail(r, all);
  const double requests = after.requests - before.requests;
  const double latency = after.latency_us - before.latency_us;
  const double lookups = after.shared_hits - before.shared_hits +
                         after.shared_misses - before.shared_misses;
  // A sweep queues one dispatcher item per point, so the mean wait of
  // an item is set against the mean latency of a request.
  const double items = after.queued_items - before.queued_items;
  r.set("serve.queue_wait_pct",
        items > 0 && latency > 0
            ? (after.queue_wait_us - before.queue_wait_us) / items /
                  (latency / requests) * 100
            : 0,
        "%");
  r.set("serve.bytes_in_per_req",
        requests > 0 ? (after.bytes_in - before.bytes_in) / requests : 0, "bytes");
  r.set("serve.bytes_out_per_req",
        requests > 0 ? (after.bytes_out - before.bytes_out) / requests : 0,
        "bytes");
  r.set("serve.admission_refused", after.refused - before.refused, "count");
  r.set("serve.shared_plan_hit_ratio",
        lookups > 0 ? (after.shared_hits - before.shared_hits) / lookups : 0,
        "ratio");
}

}  // namespace bench
