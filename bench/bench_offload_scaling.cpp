// Figure 8: DRAM offloading scales across GPUs — simulation time of a
// fixed over-memory qft circuit on 1, 2 and 4 GPUs (the paper's
// contrast: QDAO stays flat when given more GPUs; Atlas speeds up).
//
// Part two runs the same GPU ladder through the device runner's
// batched launches: a parameter sweep over 16 DRAM shards, batched
// execute_batch() vs per-point execute(), at 1/2/4 modeled GPUs. Every
// rung offloads, so the session's executor picks the device runner. Each
// modeled GPU stages its shards in its own cluster-pool task, so more
// GPUs replay more shards at once and the batched advantage should
// hold across the ladder (no wall-time gate here — bench_offload owns
// it).
// Exits non-zero when any ladder row is not bit-identical ("exact NO").

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/parse.h"
#include "common/timer.h"
#include "util.h"

namespace atlas::bench {
namespace {

// Same shape bench_offload amortizes: an entangling wash across every
// qubit, then a deep constant block confined to a 5-qubit fusion
// window, with the swept parameters on a qubit outside the window so
// the deep kernels bind once per sweep rather than once per point.
Circuit scaling_ansatz(int n) {
  Circuit c(n, "scaling_ansatz");
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q + 1 < n; ++q) c.add(Gate::cx(q, q + 1));
  const int w = std::min(5, n);
  for (int l = 0; l < 6; ++l) {
    for (int q = 0; q < w; ++q) c.add(Gate::h(q));
    for (int q = 0; q < w; ++q)
      c.add(Gate::cp(q, (q + 1) % w, 0.2 + 0.1 * q + 0.05 * l));
    for (int q = 0; q < w; ++q) c.add(Gate::t(q));
  }
  const Param theta = Param::symbol("theta");
  c.add(Gate::rx(5, theta));
  c.add(Gate::rz(5, theta));
  return c;
}

void figure8(int local) {
  const int n = local + 4;  // 16 DRAM shards

  print_header(
      "Figure 8 — DRAM offloading scales with GPUs",
      "32-qubit qft, 28 local qubits, 1/2/4 GPUs on one node",
      "qft at L+4 qubits, 16 DRAM shards swapped through 1/2/4 virtual "
      "GPUs");

  std::printf("%5s | %12s %12s | %12s\n", "GPUs", "atlas", "qdao-like",
              "atlas scaling");
  double atlas_1gpu = 0;
  for (int gpus : {1, 2, 4}) {
    SessionConfig cfg;
    cfg.cluster.local_qubits = local;
    cfg.cluster.regional_qubits = 4;
    cfg.cluster.global_qubits = 0;
    cfg.cluster.gpus_per_node = gpus;
    cfg.cluster.num_threads = gpus;
    const Circuit c = circuits::qft(n);

    const Session session(cfg);
    const auto r = session.simulate(c);
    // With g GPUs sharing the swap link and the kernel work, the
    // modeled time divides the per-stage work across them.
    const double modeled = r.report.modeled_seconds(cfg.comm, gpus, 1);
    // QDAO cannot exploit additional GPUs (the paper's Fig. 8 shows a
    // flat line), so its modeled time always uses one GPU.
    const auto qdao =
        baselines::run_baseline(baselines::BaselineKind::Qdao, c, cfg);
    const double qmodeled = qdao.report.modeled_seconds(cfg.comm, 1, 1);
    if (gpus == 1) atlas_1gpu = modeled;
    std::printf("%5d | %10.2fms %10.2fms | %10.2fx\n", gpus, modeled * 1e3,
                qmodeled * 1e3, atlas_1gpu / modeled);
  }
  std::printf("\n(paper: Atlas scales across GPUs; QDAO's time stays flat)\n");
}

/// Returns false when any row's batched sweep differs from per-point runs.
bool batched_ladder(bool smoke) {
  const int local = smoke ? 6 : 8;
  const int regional = 4;  // 16 DRAM shards
  const int n = local + regional;
  const int points_n = smoke ? 8 : 16;
  const int reps = smoke ? 1 : 3;

  print_header(
      "Device runner — batched-launch speedup across the GPU ladder",
      "batched execute_batch vs per-point execute, 16 DRAM shards",
      smoke ? "8-point sweep through 1/2/4 modeled GPUs (smoke)"
            : "16-point sweep through 1/2/4 modeled GPUs");

  std::printf("%5s | %12s %12s | %8s %6s\n", "GPUs", "per-point", "batched",
              "speedup", "exact");
  bool all_identical = true;
  for (int gpus : {1, 2, 4}) {
    SessionConfig cfg;
    cfg.cluster.local_qubits = local;
    cfg.cluster.regional_qubits = regional;
    cfg.cluster.global_qubits = 0;
    cfg.cluster.gpus_per_node = gpus;
    cfg.cluster.num_threads = std::max(2, gpus);
    const Session session(cfg);
    const CompiledCircuit compiled = session.compile(scaling_ansatz(n));

    Rng rng(0x5CA11);
    std::vector<std::vector<double>> points(
        static_cast<std::size_t>(points_n));
    for (auto& p : points) {
      p.resize(compiled.symbols().size());
      for (double& v : p) v = rng.uniform() * 6.28318 - 3.14159;
    }

    bool identical = true;
    {
      const std::vector<SimulationResult> batched =
          session.sweep(compiled, points);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const SimulationResult solo = session.run(compiled, points[i]);
        identical &= solo.state.gather().amplitudes() ==
                     batched[i].state.gather().amplitudes();
      }
    }

    double per_point = 1e30, batched = 1e30;
    for (int r = 0; r < reps; ++r) {
      Timer t;
      for (const auto& p : points) session.run(compiled, p);
      per_point = std::min(per_point, t.seconds());
    }
    for (int r = 0; r < reps; ++r) {
      Timer t;
      session.sweep(compiled, points);
      batched = std::min(batched, t.seconds());
    }
    std::printf("%5d | %10.2fms %10.2fms | %7.2fx %6s\n", gpus,
                per_point * 1e3, batched * 1e3, per_point / batched,
                identical ? "yes" : "NO");
    all_identical &= identical;
  }
  return all_identical;
}

}  // namespace
}  // namespace atlas::bench

int main(int argc, char** argv) {
  using namespace atlas;
  bool smoke = false;
  int local = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      local = atlas::parse_arg(argv[0], "local", argv[i], 3, 39);
  }
  bench::figure8(smoke ? 12 : local);
  if (!bench::batched_ladder(smoke)) {
    std::printf("FAIL: a batched sweep is not bit-identical to per-point "
                "runs\n");
    return 1;
  }
  return 0;
}
