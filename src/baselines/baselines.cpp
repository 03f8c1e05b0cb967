#include "baselines/baselines.h"

#include "common/error.h"
#include "kernelize/greedy.h"
#include "kernelize/ordered.h"
#include "staging/snuqs.h"
#include "staging/stager.h"
#include "verify/verify.h"

namespace atlas::baselines {
namespace {

/// One fusion kernel per gate (no fusion at all): Qiskit-like launch
/// pattern.
kernelize::Kernelization per_gate_kernels(const Circuit& circuit,
                                          const kernelize::CostModel& model) {
  kernelize::Kernelization out;
  for (int i = 0; i < circuit.num_gates(); ++i) {
    kernelize::Kernel k;
    k.type = kernelize::KernelType::Fusion;
    k.gate_indices = {i};
    k.qubits = circuit.gate(i).qubits();
    std::sort(k.qubits.begin(), k.qubits.end());
    k.cost = kernelize::kernel_cost(circuit, k, model);
    out.total_cost += k.cost;
    out.kernels.push_back(std::move(k));
  }
  return out;
}

staging::StagedCircuit stage_for(BaselineKind kind, const Circuit& circuit,
                                 const staging::MachineShape& shape) {
  switch (kind) {
    case BaselineKind::Qiskit:
    case BaselineKind::CuQuantum:
    case BaselineKind::Qdao:
      return staging::stage_with_snuqs(circuit, shape);
    case BaselineKind::HyQuas: {
      // Greedy contiguous-prefix staging: the specialized engine with
      // a beam of one and a single sampled solution degenerates to the
      // maximal-prefix greedy (TRANS-style).
      staging::BnbStagerOptions opt;
      opt.beam_width = 1;
      opt.max_solutions = 1;
      opt.node_budget = 1;  // no backtracking: pure greedy
      return staging::stage_with_bnb(circuit, shape, opt);
    }
  }
  throw Error("unknown baseline");
}

kernelize::Kernelization kernels_for(BaselineKind kind,
                                     const Circuit& subcircuit,
                                     const kernelize::CostModel& model) {
  switch (kind) {
    case BaselineKind::Qiskit:
    case BaselineKind::Qdao:
      return per_gate_kernels(subcircuit, model);
    case BaselineKind::CuQuantum:
      return kernelize::kernelize_greedy(subcircuit, model);
    case BaselineKind::HyQuas:
      return kernelize::kernelize_ordered(subcircuit, model);
  }
  throw Error("unknown baseline");
}

/// None of the baseline systems optimizes the regional/global split
/// across stage transitions (that is Atlas' Eq. (2) c*T term), so
/// their partitions use a naive ascending assignment of the non-local
/// qubits: regional first, global last.
void naive_global_assignment(staging::StagedCircuit& staged,
                             const staging::MachineShape& shape) {
  for (auto& stage : staged.stages) {
    std::vector<Qubit> nonlocal;
    nonlocal.insert(nonlocal.end(), stage.partition.regional.begin(),
                    stage.partition.regional.end());
    nonlocal.insert(nonlocal.end(), stage.partition.global.begin(),
                    stage.partition.global.end());
    std::sort(nonlocal.begin(), nonlocal.end());
    stage.partition.regional.assign(
        nonlocal.begin(), nonlocal.begin() + shape.num_regional);
    stage.partition.global.assign(nonlocal.begin() + shape.num_regional,
                                  nonlocal.end());
  }
  staged.comm_cost =
      staging::communication_cost(staged.stages, shape.cost_factor);
}

}  // namespace

const char* baseline_name(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::Qiskit: return "qiskit-like";
    case BaselineKind::CuQuantum: return "cuquantum-like";
    case BaselineKind::HyQuas: return "hyquas-like";
    case BaselineKind::Qdao: return "qdao-like";
  }
  return "?";
}

exec::ExecutionPlan plan_baseline(BaselineKind kind, const Circuit& circuit,
                                  const SessionConfig& config) {
  const auto& cc = config.cluster;
  ATLAS_CHECK(circuit.num_qubits() == cc.total_qubits(),
              "circuit/cluster shape mismatch");
  staging::MachineShape shape;
  shape.num_local = cc.local_qubits;
  shape.num_regional = cc.regional_qubits;
  shape.num_global = cc.global_qubits;
  shape.cost_factor = config.stage_cost_factor;

  staging::StagedCircuit staged = stage_for(kind, circuit, shape);
  naive_global_assignment(staged, shape);
  verify::check(verify::verify_staged(circuit, staged, shape));

  exec::ExecutionPlan plan;
  plan.staging_comm_cost = staged.comm_cost;
  plan.offload_reload_per_kernel = kind == BaselineKind::Qdao;
  for (const auto& stage : staged.stages) {
    exec::PlannedStage ps;
    ps.original_indices = stage.gate_indices;
    ps.partition = stage.partition;
    ps.subcircuit = circuit.subcircuit(stage.gate_indices);
    ps.kernels = kernels_for(kind, ps.subcircuit, config.cost_model);
    plan.kernel_cost_total += ps.kernels.total_cost;
    plan.stages.push_back(std::move(ps));
  }
  verify::check(verify::verify_plan(plan, shape, config.cost_model, &circuit));
  return plan;
}

BaselineResult run_baseline(BaselineKind kind, const Circuit& circuit,
                            const SessionConfig& config) {
  BaselineResult result;
  result.plan = plan_baseline(kind, circuit, config);
  device::Cluster cluster(config.cluster);
  const exec::Executor executor;
  result.state = executor.initial_state(result.plan, cluster);
  result.report = executor.execute(result.plan, cluster, result.state, {});
  return result;
}

}  // namespace atlas::baselines
