// DRAM-offloading demo (paper Section VII-C): simulate a circuit whose
// state does not fit in GPU memory by keeping shards in node DRAM and
// swapping them through the available GPUs once per stage. Contrast
// Atlas' stage-level swaps with QDAO-style per-kernel reloads.
//
//   ./build/examples/offload_demo [num_qubits]   (default 20)

#include <cstdio>

#include "baselines/baselines.h"
#include "circuits/families.h"
#include "common/parse.h"
#include "core/session.h"

int main(int argc, char** argv) {
  using namespace atlas;
  const int n =
      argc > 1 ? parse_arg(argv[0], "num_qubits", argv[1], 10, 26) : 20;

  // One node, one physical GPU holding 2^(n-3) amplitudes; the full
  // 2^n state lives in DRAM as 8 shards.
  SessionConfig cfg;
  cfg.cluster.local_qubits = n - 3;
  cfg.cluster.regional_qubits = 3;
  cfg.cluster.global_qubits = 0;
  cfg.cluster.gpus_per_node = 1;

  const Circuit circuit = circuits::qft(n);
  std::printf("qft %d qubits with DRAM offloading (GPU holds 1/8 of the "
              "state)\n\n", n);

  const Session session(cfg);
  const SimulationResult atlas_result = session.simulate(circuit);
  const auto qdao = baselines::run_baseline(baselines::BaselineKind::Qdao,
                                            circuit, cfg);

  const auto& comm = cfg.comm;
  auto show = [&](const char* name, const exec::ExecutionReport& r,
                  std::size_t stages) {
    std::printf("%-12s stages=%-3zu offload=%8.1f MiB  modeled=%7.3f s  "
                "wall=%6.1f ms\n",
                name, stages, r.totals.offload_bytes / 1048576.0,
                r.modeled_seconds(comm, 1, 1), r.wall_seconds * 1e3);
  };
  show("atlas", atlas_result.report, atlas_result.plan->stages.size());
  show("qdao-like", qdao.report, qdao.plan.stages.size());

  std::printf("\natlas swaps each shard once per stage; the QDAO-style\n"
              "schedule reloads blocks per kernel, multiplying PCIe "
              "traffic.\n");
  return 0;
}
