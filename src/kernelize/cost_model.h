#pragma once

/// \file cost_model.h
/// The kernel cost model of Section V-B / VI-B. Two execution modes:
///
///  * Fusion kernels — all gates pre-multiplied into one dense matrix
///    applied at once (cuQuantum-style). Cost depends only on the
///    kernel's qubit count.
///  * Shared-memory kernels — amplitudes loaded into scratch memory in
///    micro-batches, gates applied one by one (HyQuas SHM-style).
///    Cost = alpha (batch load) + sum of per-gate costs.
///
/// The constants of `default_model()` are hand-set, so preprocessing
/// is deterministic. They are not measured on this substrate (the
/// paper's Section VII-A profiling step): the ROADMAP item "A cost
/// model in the kernels' own classes" covers calibrating them against
/// the apply kernels' classes.

#include "ir/gate.h"

namespace atlas::kernelize {

struct CostModel {
  /// fusion_cost[k] = cost of a fusion kernel on k qubits (index 0
  /// unused). The most cost-efficient density (cost[k]/k) should sit
  /// at ~5 qubits, matching the paper's greedy-baseline choice.
  std::vector<double> fusion_cost;

  /// Shared-memory kernel: fixed micro-batch load cost...
  double shm_alpha = 0.0;
  /// ...plus per-gate costs by target count (1-, 2-, 3+-qubit) applied
  /// inside the scratch buffer.
  double shm_gate_1q = 0.0;
  double shm_gate_2q = 0.0;
  double shm_gate_3q = 0.0;

  int max_fusion_qubits = 0;  // == fusion_cost.size() - 1
  int max_shm_qubits = 0;     // active-qubit cap (includes 3 LSBs)

  double fusion_kernel_cost(int num_qubits) const;
  double shm_gate_cost(const Gate& g) const;

  /// The fusion kernel size k maximizing k / fusion_cost[k] (the
  /// "most cost-efficient kernel size" used by the greedy baseline).
  int most_efficient_fusion_size() const;

  /// The hand-set constants every engine plans with by default.
  static CostModel default_model();
};

}  // namespace atlas::kernelize
