#include "staging/stager.h"

#include "staging/reduce.h"

namespace atlas::staging {

StagedCircuit stage_circuit(const Circuit& circuit, const MachineShape& shape,
                            const StagingOptions& options) {
  // The general MIP solver is exact but dense; reserve it for small
  // reduced models and use the specialized search otherwise.
  const ReducedCircuit rc = reduce(circuit);
  if (static_cast<int>(rc.gates.size()) <= 12 && circuit.num_qubits() <= 9) {
    auto staged = stage_with_ilp(circuit, shape, options.ilp);
    if (staged.has_value()) return *std::move(staged);
  }
  return stage_with_bnb(circuit, shape, options.bnb);
}

}  // namespace atlas::staging
