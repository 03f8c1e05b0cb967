#include "staging/stager.h"

#include "staging/registry.h"

namespace atlas::staging {

StagedCircuit stage_circuit(const Circuit& circuit, const MachineShape& shape,
                            const std::string& engine,
                            const StagingOptions& options) {
  return stager_registry().create(engine)->stage(circuit, shape, options);
}

}  // namespace atlas::staging
