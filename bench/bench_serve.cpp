// bench_serve — request throughput and latency of the serving daemon.
//
// Workload: an embedded Server on a loopback socket; N client threads
// each open a tenant session, submit + compile the same parameterized
// ansatz (one shared plan across all tenants), then issue a stream of
// run() requests. Reports req/s and p50/p99 latency at several client
// counts against the in-process single-thread Session::run() rate —
// the serving overhead (framing, scheduling, fair queueing) must not
// cost more than the concurrency wins back.
//
// Gate: aggregate throughput at 16 clients >= 0.5x the in-process
// single-thread run() rate. --smoke shrinks the request counts and
// skips the gate (CI workers are noisy and often single-core); --json
// PATH emits a BENCH_serve.json artifact for trend tracking.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"
#include "qasm/qasm.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util.h"

namespace atlas::bench {
namespace {

const char* kAnsatzQasm =
    "OPENQASM 3;\n"
    "include \"qelib1.inc\";\n"
    "input float theta;\n"
    "qreg q[8];\n"
    "h q[0];\nh q[1];\nh q[2];\nh q[3];\n"
    "h q[4];\nh q[5];\nh q[6];\nh q[7];\n"
    "cx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\ncx q[3],q[4];\n"
    "cx q[4],q[5];\ncx q[5],q[6];\ncx q[6],q[7];\n"
    "rx(theta) q[0];\nrx(theta) q[1];\nrx(theta) q[2];\nrx(theta) q[3];\n"
    "rx(theta) q[4];\nrx(theta) q[5];\nrx(theta) q[6];\nrx(theta) q[7];\n";

SessionConfig serve_session_config() {
  SessionConfig cfg;
  cfg.cluster.local_qubits = 6;
  cfg.cluster.regional_qubits = 1;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 2;
  cfg.cluster.num_threads = 1;
  cfg.dispatch_threads = 1;
  return cfg;
}

struct ClientOutcome {
  double req_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

ClientOutcome drive_clients(serve::Server& server, int clients,
                            int requests_per_client) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  // All client threads observe into one obs::Histogram (lock-free
  // bucket increments) — same quantile semantics as the server's own
  // serve.request_latency_us.* metrics, so bench numbers and runtime
  // metrics are directly comparable.
  obs::Histogram latency_us;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client("127.0.0.1", server.port());
      serve::OpenSessionRequest open;
      open.tenant = "bench-" + std::to_string(c);
      const std::uint64_t sid = client.open_session(open);
      const serve::SubmitReply sub = client.submit_qasm(sid, kAnsatzQasm);
      const serve::CompileReply cc = client.compile(sid, sub.circuit_id);
      (void)client.run(sid, cc.compiled_id, {0.1});  // warm the path
      ready++;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < requests_per_client; ++i) {
        Timer t;
        (void)client.run(sid, cc.compiled_id, {0.01 * i});
        latency_us.observe(t.seconds() * 1e6);
      }
      client.close_session(sid);
    });
  }
  while (ready.load() != clients) std::this_thread::yield();
  Timer wall;
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const double seconds = wall.seconds();

  const obs::Histogram::Snapshot snap = latency_us.snapshot();
  ClientOutcome out;
  out.req_per_sec =
      static_cast<double>(clients) * requests_per_client / seconds;
  out.p50_us = snap.quantile(0.50);
  out.p99_us = snap.quantile(0.99);
  return out;
}

int run(bool smoke, const char* json_path) {
  const int requests_per_client = smoke ? 40 : 250;
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());

  print_header(
      "Serving daemon: req/s and latency vs client count",
      "long-lived simulation service, many tenants sharing one cluster",
      (std::to_string(requests_per_client) +
       " run() requests/client over loopback, 8-qubit ansatz, shared plan")
          .c_str());

  // --- Baseline: in-process single-thread run() rate, best of 3 —
  // a scheduler hiccup in the reference would distort every ratio.
  double baseline_rps = 0;
  {
    Session session(serve_session_config());
    const qasm::NoisyParse parsed = qasm::parse_with_noise(kAnsatzQasm);
    const CompiledCircuit cc = session.compile(parsed.circuit);
    (void)session.run(cc, std::vector<double>{0.1});  // warm
    const int reps = smoke ? 200 : 1000;
    for (int round = 0; round < 3; ++round) {
      Timer t;
      for (int i = 0; i < reps; ++i)
        (void)session.run(cc, std::vector<double>{0.01 * i});
      baseline_rps = std::max(baseline_rps, reps / t.seconds());
    }
  }
  std::printf("\nbaseline    : %10.0f req/s (in-process, single thread)\n\n",
              baseline_rps);

  // --- Server: throughput/latency at several client counts.
  serve::ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = static_cast<int>(std::min(hardware, 8u));
  cfg.session = serve_session_config();
  serve::Server server(cfg);
  server.start();

  const std::vector<int> client_counts = {1, 4, 16};
  std::vector<ClientOutcome> outcomes;
  std::printf("%-8s %12s %12s %12s %10s\n", "clients", "req/s", "p50 (us)",
              "p99 (us)", "vs base");
  for (int clients : client_counts) {
    // Best of 2 rounds: same noise-rejection as the baseline's
    // best-of-3 (p50/p99 come from the better round).
    ClientOutcome o = drive_clients(server, clients, requests_per_client);
    const ClientOutcome second =
        drive_clients(server, clients, requests_per_client);
    if (second.req_per_sec > o.req_per_sec) o = second;
    outcomes.push_back(o);
    std::printf("%-8d %12.0f %12.1f %12.1f %9.2fx\n", clients, o.req_per_sec,
                o.p50_us, o.p99_us, o.req_per_sec / baseline_rps);
  }

  const PlanCacheStats cache = server.store().plan_cache_stats();
  std::printf("\nshared plans: %llu entries, %llu hits / %llu misses — "
              "every tenant rode one compile\n",
              static_cast<unsigned long long>(cache.size),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));
  server.stop();

  // --- Gate: serving 16 clients must keep at least half the
  // in-process single-thread rate (the paper's serving premise: the
  // daemon amortizes planning, so the wire cannot dominate).
  const double ratio_16 = outcomes.back().req_per_sec / baseline_rps;
  const bool gate_ok = smoke || ratio_16 >= 0.5;

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"serve\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"requests_per_client\": %d,\n", requests_per_client);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hardware);
    std::fprintf(f, "  \"baseline_req_per_sec\": %.1f,\n", baseline_rps);
    std::fprintf(f, "  \"clients\": {");
    for (std::size_t i = 0; i < client_counts.size(); ++i) {
      std::fprintf(f,
                   "%s\"c%d\": {\"req_per_sec\": %.1f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f}",
                   i == 0 ? "" : ", ", client_counts[i],
                   outcomes[i].req_per_sec, outcomes[i].p50_us,
                   outcomes[i].p99_us);
    }
    std::fprintf(f, "},\n");
    std::fprintf(f,
                 "  \"shared_plan_hits\": %llu,\n"
                 "  \"shared_plan_misses\": %llu,\n",
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses));
    std::fprintf(f, "  \"gate_ok\": %s\n}\n", gate_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  if (!gate_ok) {
    std::printf("FAIL: 16-client throughput %.2fx baseline (< 0.5x)\n",
                ratio_16);
    return 1;
  }
  std::printf("check: 16-client throughput %.2fx in-process baseline%s — %s\n",
              ratio_16, smoke ? " (gate skipped)" : " (>= 0.5x)",
              smoke ? "SMOKE PASS" : "PASS");
  return 0;
}

}  // namespace
}  // namespace atlas::bench

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  return atlas::bench::run(smoke, json_path);
}
