#pragma once

/// \file stager.h
/// Public facade for circuit staging (the paper's STAGE algorithm).

#include <string>

#include "staging/bnb_stager.h"
#include "staging/ilp_stager.h"
#include "staging/stage.h"

namespace atlas::staging {

/// Per-engine tuning knobs; each engine reads its own sub-struct.
struct StagingOptions {
  IlpStagerOptions ilp;
  BnbStagerOptions bnb;
};

/// Stages `circuit` for `shape` with the registered engine `engine`
/// ("auto", "ilp", "bnb", "snuqs" or a user engine; see
/// staging/registry.h). The result always passes validate_staging().
/// Throws atlas::Error when no staging exists (a gate with more
/// non-insular qubits than local capacity) or the engine is unknown.
StagedCircuit stage_circuit(const Circuit& circuit, const MachineShape& shape,
                            const std::string& engine = "auto",
                            const StagingOptions& options = {});

}  // namespace atlas::staging
