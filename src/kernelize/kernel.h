#pragma once

/// \file kernel.h
/// Kernelization output types (Section V): a kernel is a group of
/// gates executed by one GPU kernel launch, either as a fused matrix
/// or as a shared-memory batch pass.

#include <vector>

#include "common/types.h"
#include "ir/circuit.h"
#include "kernelize/cost_model.h"

namespace atlas::kernelize {

enum class KernelType { Fusion, SharedMemory };

struct Kernel {
  KernelType type = KernelType::Fusion;
  /// Gate indices into the kernelized circuit, in execution order.
  std::vector<int> gate_indices;
  /// Union of the gates' qubits, ascending.
  std::vector<Qubit> qubits;
  double cost = 0.0;
};

struct Kernelization {
  std::vector<Kernel> kernels;
  double total_cost = 0.0;
};

/// Computes a kernel's cost under `model` from its type, qubit count,
/// and member gates.
double kernel_cost(const Circuit& circuit, const Kernel& kernel,
                   const CostModel& model);

}  // namespace atlas::kernelize
