// atlas_cli — command-line front end: simulate a QASM file or a named
// benchmark family on a configurable virtual cluster and report
// statistics, the partition plan, timings, and sampled measurement
// outcomes.
//
//   atlas_cli <family|file.qasm> [--qubits n] [--local L] [--regional R]
//             [--global G] [--gpus-per-node g] [--shots k] [--seed s]
//
//   e.g. ./build/atlas_cli ghz --qubits 18 --local 14 --regional 2 --global 2 --shots 8

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "circuits/families.h"
#include "common/parse.h"
#include "core/session.h"
#include "exec/queries.h"
#include "opt/rewrite.h"
#include "qasm/qasm.h"

namespace {

/// The value of `flag` parsed whole in [lo, hi] (exit 2 on junk), or
/// `fallback` when the flag is absent.
int arg_int(int argc, char** argv, const char* flag, int fallback, int lo,
            int hi) {
  for (int i = 2; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0)
      return atlas::parse_arg(argv[0], flag, argv[i + 1], lo, hi);
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atlas;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <family|file.qasm> [--qubits n] [--local L] "
                 "[--regional R] [--global G] [--gpus-per-node g] "
                 "[--shots k] [--seed s]\n",
                 argv[0]);
    return 2;
  }
  const std::string spec = argv[1];
  const int n = arg_int(argc, argv, "--qubits", 16, 1, 62);

  Circuit circuit;
  try {
    if (spec.size() > 5 && spec.substr(spec.size() - 5) == ".qasm") {
      circuit = qasm::parse_file(spec);
    } else {
      circuit = circuits::make_family(spec, n);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const int nq = circuit.num_qubits();
  const int local =
      arg_int(argc, argv, "--local", std::max(3, nq - 4), 3, 39);
  const int regional =
      arg_int(argc, argv, "--regional", std::min(2, nq - local), 0, 23);
  const int global =
      arg_int(argc, argv, "--global", nq - local - regional, 0, 23);
  const int shots = arg_int(argc, argv, "--shots", 8, 0, 1 << 20);
  const int seed = arg_int(argc, argv, "--seed", 1, 0, INT_MAX);

  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node =
      arg_int(argc, argv, "--gpus-per-node", 1 << regional, 1, 1 << 23);

  const CircuitStats stats = statistics(circuit);
  std::printf("circuit: %s — %d qubits, %d gates, depth %d "
              "(%d multi-qubit, %d fully insular)\n",
              circuit.name().c_str(), stats.num_qubits, stats.num_gates,
              stats.depth, stats.multi_qubit_gates,
              stats.fully_insular_gates);
  std::printf("machine: L=%d R=%d G=%d, %d GPU(s)/node, %d node(s)%s\n",
              local, regional, global, cfg.cluster.gpus_per_node,
              cfg.cluster.num_nodes(),
              cfg.cluster.offloading() ? " [DRAM offloading]" : "");

  try {
    const Session session(cfg);
    const SimulationResult r = session.simulate(circuit);
    std::printf("plan: %zu stage(s), staging cost %.1f, kernel cost %.2f\n",
                r.plan->stages.size(), r.plan->staging_comm_cost,
                r.plan->kernel_cost_total);
    std::printf("run: %.1f ms wall | inter-node %.2f MiB | "
                "intra-node %.2f MiB | offload %.2f MiB\n",
                r.report.wall_seconds * 1e3,
                r.report.totals.inter_node_bytes / 1048576.0,
                r.report.totals.intra_node_bytes / 1048576.0,
                r.report.totals.offload_bytes / 1048576.0);
    std::printf("norm: %.12f\n", exec::norm_sq(r.state));
    if (shots > 0) {
      Rng rng(seed);
      std::printf("samples (%d shots):", shots);
      for (Index s : exec::sample(r.state, shots, rng))
        std::printf(" %llx", static_cast<unsigned long long>(s));
      std::printf("\n");
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
