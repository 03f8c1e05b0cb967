// Figure 7: DRAM offloading on a single GPU — Atlas vs QDAO-like, qft
// circuits that exceed GPU memory. The paper runs 28-32 qubits with a
// 28-qubit GPU (QDAO m=28, t=19) and reports Atlas 61x faster on
// average; the crossover shape to reproduce: equal at the
// fits-in-memory size, then an order-of-magnitude-plus gap.
//
// Part two measures the device runner's batched-launch amortization:
// a 32-point parameter sweep on an offloading shape (8 DRAM shards
// through 2 modeled GPUs, so the session's executor stages every shard
// through the device runner), batched execute_batch() — one staging
// arena, one constant bind per stage — against the same sweep as 32
// independent execute() calls, each paying the full arena/bind
// lifecycle. Results are asserted bit-identical
// in-bench before any timing is trusted; full mode gates batched at
// >= 2x per-point. --smoke shrinks the workload and skips the gate
// (shared CI workers are noisy); --json PATH emits a
// BENCH_device.json artifact for trend tracking.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/timer.h"
#include "device/buffer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "util.h"

namespace atlas::bench {
namespace {

std::vector<std::vector<double>> sweep_points(const CompiledCircuit& compiled,
                                              int count) {
  Rng rng(0xBE7C4);
  std::vector<std::vector<double>> points(static_cast<std::size_t>(count));
  for (auto& p : points) {
    p.resize(compiled.symbols().size());
    for (double& v : p) v = rng.uniform() * 6.28318 - 3.14159;
  }
  return points;
}

/// The shape batched launches amortize best: an entangling wash across
/// every qubit (a real multi-shard stage), then a deep constant block
/// confined to a 5-qubit window — it stays in one partition and fuses
/// into dense kernels whose bind (fusion-product matrices) costs far
/// more than their replay — with the variational parameters on a qubit
/// outside that window so the deep kernels' bound values never change
/// across the sweep. Per-point execution re-materializes every fusion
/// product at every point; the batched path binds them once per stage
/// and re-binds only the kernels whose slot values the point varies.
Circuit make_ansatz(int n, int layers) {
  Circuit c(n, "offload_ansatz");
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q + 1 < n; ++q) c.add(Gate::cx(q, q + 1));
  const int w = std::min(5, n);
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < w; ++q) c.add(Gate::h(q));
    for (int q = 0; q < w; ++q)
      c.add(Gate::cp(q, (q + 1) % w, 0.3 + 0.1 * q + 0.05 * l));
    for (int q = 0; q < w; ++q) c.add(Gate::t(q));
  }
  const Param gamma = Param::symbol("gamma");
  const Param theta = Param::symbol("theta");
  c.add(Gate::rx(5, theta));
  c.add(Gate::rz(5, gamma));
  c.add(Gate::rx(5, theta));
  return c;
}

double figure7(int local) {
  print_header(
      "Figure 7 — DRAM offloading (single GPU), Atlas vs QDAO",
      "qft 28-32 qubits, GPU holds 2^28 amplitudes, rest in DRAM",
      "qft L..L+4 qubits, GPU holds 2^14/2^16 amplitudes, PCIe-class "
      "modeled offload link");

  std::printf("%7s %7s | %12s %12s | %8s\n", "qubits", "shards", "atlas",
              "qdao-like", "speedup");
  std::vector<double> speedups;
  for (int extra = 0; extra <= 4; ++extra) {
    const int n = local + extra;
    SessionConfig cfg;
    cfg.cluster.local_qubits = local;
    cfg.cluster.regional_qubits = extra;  // all non-local shards in DRAM
    cfg.cluster.global_qubits = 0;
    cfg.cluster.gpus_per_node = 1;
    const Circuit c = circuits::qft(n);

    const auto atlas_run = run_atlas(c, cfg);
    const auto qdao = run_base(baselines::BaselineKind::Qdao, c, cfg);
    const double speedup = qdao.modeled_seconds / atlas_run.modeled_seconds;
    if (extra > 0) speedups.push_back(speedup);
    std::printf("%7d %7d | %10.2fms %10.2fms | %7.1fx\n", n, 1 << extra,
                atlas_run.modeled_seconds * 1e3, qdao.modeled_seconds * 1e3,
                speedup);
  }
  const double gm = geomean(speedups);
  std::printf("\ngeomean speedup beyond GPU memory: %.1fx\n", gm);
  std::printf("(paper: 6x at the in-memory size, 45-105x beyond, 61x "
              "average)\n");
  return gm;
}

struct BatchedOutcome {
  int qubits = 0;
  int shards = 0;
  int gpus = 0;
  int points = 0;
  double per_point_seconds = 0;
  double batched_seconds = 0;
  bool identical = false;
  std::uint64_t const_uploads = 0;
  std::uint64_t staged_bytes = 0;

  double speedup() const { return per_point_seconds / batched_seconds; }
};

BatchedOutcome batched_vs_per_point(bool smoke) {
  const int local = smoke ? 6 : 7;
  const int regional = 3;  // 8 DRAM shards per node
  const int n = local + regional;
  const int points_n = smoke ? 8 : 32;
  const int reps = smoke ? 1 : 3;

  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = 0;
  cfg.cluster.gpus_per_node = 2;  // 8 shards through 2 modeled GPUs
  cfg.cluster.num_threads = 2;
  const Session session(cfg);
  const CompiledCircuit compiled = session.compile(make_ansatz(n, 8));
  const std::vector<std::vector<double>> points =
      sweep_points(compiled, points_n);

  BatchedOutcome out;
  out.qubits = n;
  out.shards = 1 << regional;
  out.gpus = cfg.cluster.gpus_per_node;
  out.points = points_n;

  // Bit-identity first: batching is a scheduling change, never a
  // numerical one. Any mismatch invalidates the timings below.
  out.identical = true;
  {
    const std::vector<SimulationResult> batched =
        session.sweep(compiled, points);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SimulationResult solo = session.run(compiled, points[i]);
      out.identical &= solo.seed == batched[i].seed;
      out.identical &= solo.state.gather().amplitudes() ==
                       batched[i].state.gather().amplitudes();
    }
  }

  // Warmed plan + skeleton caches; what remains is pure execution.
  obs::Counter& const_uploads = obs::counter(obs::names::kDeviceConstUploads);
  double per_point_best = 1e30, batched_best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (const std::vector<double>& p : points) session.run(compiled, p);
    per_point_best = std::min(per_point_best, t.seconds());
  }
  const std::uint64_t uploads0 = const_uploads.value();
  const device::BufferStats stats0 = device::buffer_stats();
  for (int r = 0; r < reps; ++r) {
    Timer t;
    session.sweep(compiled, points);
    batched_best = std::min(batched_best, t.seconds());
  }
  out.per_point_seconds = per_point_best;
  out.batched_seconds = batched_best;
  out.const_uploads =
      (const_uploads.value() - uploads0) / static_cast<std::uint64_t>(reps);
  out.staged_bytes = (device::buffer_stats().upload_bytes -
                      stats0.upload_bytes) /
                     static_cast<std::uint64_t>(reps);
  return out;
}

int run(bool smoke, const char* json_path) {
  const int local = smoke ? 12 : 16;
  const double fig7_geomean = figure7(local);

  print_header(
      "Device runner — batched launches vs per-point lifecycle",
      "one execute_batch per sweep: constants bind once per stage, "
      "later points bind only their parameter delta",
      smoke ? "8-point sweep, 8 DRAM shards / 2 modeled GPUs (smoke)"
            : "32-point sweep, 8 DRAM shards / 2 modeled GPUs");

  const BatchedOutcome b = batched_vs_per_point(smoke);
  std::printf("%7s %7s %5s %7s | %12s %12s | %8s %6s\n", "qubits", "shards",
              "gpus", "points", "per-point", "batched", "speedup", "exact");
  std::printf("%7d %7d %5d %7d | %10.2fms %10.2fms | %7.2fx %6s\n", b.qubits,
              b.shards, b.gpus, b.points, b.per_point_seconds * 1e3,
              b.batched_seconds * 1e3, b.speedup(),
              b.identical ? "yes" : "NO");
  std::printf("constant uploads per sweep: %llu, staged H2D bytes per "
              "sweep: %llu\n",
              static_cast<unsigned long long>(b.const_uploads),
              static_cast<unsigned long long>(b.staged_bytes));

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"device_offload\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"figure7_geomean_speedup\": %.3f,\n", fig7_geomean);
    std::fprintf(f, "  \"batched\": {\n");
    std::fprintf(f, "    \"qubits\": %d,\n    \"shards\": %d,\n", b.qubits,
                 b.shards);
    std::fprintf(f, "    \"gpus\": %d,\n    \"points\": %d,\n", b.gpus,
                 b.points);
    std::fprintf(f, "    \"per_point_seconds\": %.6f,\n",
                 b.per_point_seconds);
    std::fprintf(f, "    \"batched_seconds\": %.6f,\n", b.batched_seconds);
    std::fprintf(f, "    \"speedup\": %.3f,\n", b.speedup());
    std::fprintf(f, "    \"bit_identical\": %s,\n",
                 b.identical ? "true" : "false");
    std::fprintf(f, "    \"const_uploads\": %llu,\n",
                 static_cast<unsigned long long>(b.const_uploads));
    std::fprintf(f, "    \"staged_h2d_bytes\": %llu\n  }\n}\n",
                 static_cast<unsigned long long>(b.staged_bytes));
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  if (!b.identical) {
    std::printf("\nFAIL: batched sweep is not bit-identical to per-point "
                "runs\n");
    return 1;
  }
  // Timing gate only on a full-mode host (CI smoke workers are too
  // noisy to gate on wall time).
  if (!smoke && b.speedup() < 2.0) {
    std::printf("\nFAIL: batched speedup %.2fx below the 2x amortization "
                "gate\n",
                b.speedup());
    return 1;
  }
  std::printf("\n%s\n", smoke ? "SMOKE PASS" : "PASS");
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
