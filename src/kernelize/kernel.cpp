#include "kernelize/kernel.h"

namespace atlas::kernelize {

double kernel_cost(const Circuit& circuit, const Kernel& kernel,
                   const CostModel& model) {
  if (kernel.type == KernelType::Fusion) {
    return model.fusion_kernel_cost(static_cast<int>(kernel.qubits.size()));
  }
  double c = model.shm_alpha;
  for (int gi : kernel.gate_indices)
    c += model.shm_gate_cost(circuit.gate(gi));
  return c;
}

}  // namespace atlas::kernelize
