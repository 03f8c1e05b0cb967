// Partition inspector: shows what the Atlas compiler pipeline does to
// a circuit — the ILP/B&B staging (stages, qubit partitions, Eq. 2
// communication cost) and the DP kernelization of each stage — and
// compares against the heuristic baselines.
//
//   ./build/examples/partition_inspect <family|file.qasm> [qubits] [local]
//   e.g. ./build/examples/partition_inspect qft 24 20
//        ./build/examples/partition_inspect my_circuit.qasm

#include <cstdio>
#include <string>

#include "baselines/baselines.h"
#include "circuits/families.h"
#include "common/parse.h"
#include "core/session.h"
#include "qasm/qasm.h"
#include "staging/snuqs.h"

int main(int argc, char** argv) {
  using namespace atlas;
  const std::string spec = argc > 1 ? argv[1] : "qft";
  const int n = argc > 2 ? parse_arg(argv[0], "qubits", argv[2], 1, 62) : 24;
  Circuit circuit;
  if (spec.size() > 5 && spec.substr(spec.size() - 5) == ".qasm") {
    circuit = qasm::parse_file(spec);
  } else {
    circuit = circuits::make_family(spec, n);
  }
  const int local = argc > 3 ? parse_arg(argv[0], "local", argv[3], 3, 39)
                             : circuit.num_qubits() - 4;
  const int regional = std::min(2, circuit.num_qubits() - local);
  const int global = circuit.num_qubits() - local - regional;

  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = 1 << regional;

  std::printf("circuit '%s': %d qubits, %d gates\n", circuit.name().c_str(),
              circuit.num_qubits(), circuit.num_gates());
  std::printf("machine: L=%d R=%d G=%d (%d GPUs on %d nodes)\n\n", local,
              regional, global, (1 << (regional + global)), 1 << global);

  const Session session(cfg);
  const exec::ExecutionPlan plan = *session.plan(circuit);

  std::printf("=== Atlas staging: %zu stages, comm cost %.1f ===\n",
              plan.stages.size(), plan.staging_comm_cost);
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const auto& st = plan.stages[s];
    std::printf("stage %zu: %d gates | local = {", s,
                st.subcircuit.num_gates());
    for (std::size_t i = 0; i < st.partition.local.size(); ++i)
      std::printf("%s%d", i ? "," : "", st.partition.local[i]);
    std::printf("} global = {");
    for (std::size_t i = 0; i < st.partition.global.size(); ++i)
      std::printf("%s%d", i ? "," : "", st.partition.global[i]);
    std::printf("}\n");
    std::printf("  kernelized into %zu kernels (cost %.2f):\n",
                st.kernels.kernels.size(), st.kernels.total_cost);
    for (const auto& k : st.kernels.kernels) {
      std::printf("    %-6s %2zu qubits %4zu gates  cost %.2f\n",
                  k.type == kernelize::KernelType::Fusion ? "fusion" : "shm",
                  k.qubits.size(), k.gate_indices.size(), k.cost);
    }
  }

  // Heuristic staging baseline for comparison (Fig. 9's SnuQS line).
  staging::MachineShape shape;
  shape.num_local = local;
  shape.num_regional = regional;
  shape.num_global = global;
  const auto snuqs = staging::stage_with_snuqs(circuit, shape);
  std::printf("\n=== SnuQS heuristic staging: %zu stages (Atlas: %zu) ===\n",
              snuqs.stages.size(), plan.stages.size());
  return 0;
}
