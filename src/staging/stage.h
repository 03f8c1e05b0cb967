#pragma once

/// \file stage.h
/// Output types of circuit staging (paper Section IV): a staged circuit
/// is a list of (subcircuit, qubit partition) pairs such that every
/// gate's non-insular qubits are local in its stage.

#include <vector>

#include "common/types.h"
#include "ir/circuit.h"

namespace atlas::staging {

/// A partition of the logical qubits into local / regional / global
/// sets (Definition 1). Sizes are fixed by the machine shape:
/// |local| = L, |regional| = R, |global| = G, L + R + G = n.
struct QubitPartition {
  std::vector<Qubit> local;
  std::vector<Qubit> regional;
  std::vector<Qubit> global;

  bool is_local(Qubit q) const;
  bool is_global(Qubit q) const;
};

/// One stage: the indices (into the original circuit) of the gates it
/// executes, in original relative order, plus its qubit partition.
struct Stage {
  std::vector<int> gate_indices;
  QubitPartition partition;
};

struct StagedCircuit {
  std::vector<Stage> stages;
  /// Total communication cost per the paper's Eq. (2):
  /// sum over stage transitions of |local_k \ local_{k-1}| +
  /// c * |global_k \ global_{k-1}|.
  double comm_cost = 0.0;
};

/// Machine shape for staging: L local qubits per shard, R regional,
/// G global; c is the inter-node cost factor of Eq. (2).
struct MachineShape {
  int num_local = 0;
  int num_regional = 0;
  int num_global = 0;
  double cost_factor = 3.0;

  int total() const { return num_local + num_regional + num_global; }
};

/// Evaluates Eq. (2) for a stage sequence.
double communication_cost(const std::vector<Stage>& stages,
                          double cost_factor);

}  // namespace atlas::staging
