// Figure 5 (a-l): weak scaling of Atlas vs HyQuas-, cuQuantum- and
// Qiskit-like baselines. The paper fixes 28 local qubits and grows the
// machine from 1 to 256 GPUs (0 to 8 non-local qubits); this bench
// fixes a host-sized local count and grows 1 -> 16 virtual GPUs. As in
// the paper, the Qiskit baseline is only run up to 4 GPUs.
//
// The headline claims this reproduces: Atlas is fastest on (nearly)
// every family, and its advantage grows with the GPU count because
// ILP/B&B staging needs fewer stages (less inter-node traffic).

#include <cstdio>
#include <vector>

#include "common/parse.h"
#include "util.h"

int main(int argc, char** argv) {
  using namespace atlas;
  using baselines::BaselineKind;
  const int local = argc > 1 ? parse_arg(argv[0], "local", argv[1], 3, 39) : 13;

  bench::print_header(
      "Figure 5 — weak scaling vs HyQuas / cuQuantum / Qiskit",
      "L=28 local qubits, 1..256 A100 GPUs (4/node), NVLink+Slingshot",
      "simulated cluster, L=14 local qubits, 1..16 virtual GPUs (4/node); "
      "modeled times use Perlmutter-like link constants");

  const std::vector<int> nonlocal_counts = {0, 1, 2, 3, 4, 6};
  std::vector<std::vector<double>> vs_hyquas(nonlocal_counts.size()),
      vs_cuq(nonlocal_counts.size()), vs_qiskit(nonlocal_counts.size());

  for (const auto& family : circuits::family_names()) {
    std::printf("\n--- %s ---\n", family.c_str());
    std::printf("%5s %8s | %11s %11s %11s %11s | %s\n", "GPUs", "qubits",
                "atlas", "hyquas", "cuquantum", "qiskit", "speedup");
    for (std::size_t i = 0; i < nonlocal_counts.size(); ++i) {
      const int nl = nonlocal_counts[i];
      const int n = local + nl;
      const SessionConfig cfg = bench::scaled_config(local, nl);
      const Circuit c = circuits::make_family(family, n);

      const auto atlas_run = bench::run_atlas(c, cfg);
      const auto hyquas = bench::run_base(BaselineKind::HyQuas, c, cfg);
      const auto cuq = bench::run_base(BaselineKind::CuQuantum, c, cfg);
      const bool run_qiskit = (1 << nl) <= 4;
      bench::RunOutcome qiskit;
      if (run_qiskit) qiskit = bench::run_base(BaselineKind::Qiskit, c, cfg);

      vs_hyquas[i].push_back(hyquas.projected_seconds /
                             atlas_run.projected_seconds);
      vs_cuq[i].push_back(cuq.projected_seconds /
                          atlas_run.projected_seconds);
      if (run_qiskit)
        vs_qiskit[i].push_back(qiskit.projected_seconds /
                               atlas_run.projected_seconds);
      const double speedup =
          std::min(hyquas.projected_seconds, cuq.projected_seconds) /
          atlas_run.projected_seconds;
      std::printf("%5d %8d | %9.3fs  %9.3fs  %9.3fs  ", 1 << nl, n,
                  atlas_run.projected_seconds ,
                  hyquas.projected_seconds , cuq.projected_seconds );
      if (run_qiskit)
        std::printf("%9.3fs  ", qiskit.projected_seconds );
      else
        std::printf("%11s ", "-");
      std::printf("| %4.1fx (stages %zu vs %zu/%zu)\n", speedup,
                  atlas_run.stages, hyquas.stages, cuq.stages);
    }
  }

  std::printf("\n=== geomean Atlas speedup per baseline ===\n");
  std::printf("%6s %12s %12s %12s\n", "GPUs", "vs hyquas", "vs cuquantum",
              "vs qiskit");
  for (std::size_t i = 0; i < nonlocal_counts.size(); ++i) {
    std::printf("%6d %11.2fx %11.2fx ", 1 << nonlocal_counts[i],
                bench::geomean(vs_hyquas[i]), bench::geomean(vs_cuq[i]));
    if (!vs_qiskit[i].empty())
      std::printf("%11.2fx\n", bench::geomean(vs_qiskit[i]));
    else
      std::printf("%12s\n", "-");
  }
  std::printf(
      "(paper: 4.0x avg over HyQuas, 3.2x over cuQuantum, 286x over Qiskit,\n"
      " growing with GPU count. On our shared substrate the cuQuantum and\n"
      " Qiskit trends reproduce; the HyQuas-like baseline converges to\n"
      " Atlas at scale because staging quality is the only remaining\n"
      " difference — see EXPERIMENTS.md.)\n");
  return 0;
}
