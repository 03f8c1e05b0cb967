#pragma once

/// \file stager.h
/// Public facade for circuit staging (the paper's STAGE algorithm).
/// stage_circuit() is the policy the compile pipeline runs; the engines
/// it picks between (stage_with_ilp, stage_with_bnb) and the SnuQS
/// baseline (staging/snuqs.h) stay callable directly.
///
/// Entry contract (the compile pipeline, core/pipeline.h): the circuit
/// STAGE sees is *post-optimization and slot-canonical* — gate-level
/// rewrites (merging, resynthesis, commutation-aware reordering) have
/// already run at the session's opt_level, and every rotation-family
/// parameter is an engine slot symbol ("$k"), never a concrete value.
/// Stagers must therefore decide insularity/diagonality per gate kind
/// (paper Definition 2), never numerically — the same staging serves
/// every binding of the slots. Circuits from the uncached plan()
/// path and per-trajectory noise lowerings skip both front phases, so
/// concrete parameters (and non-unitary trajectory operators) remain
/// legal inputs; only the *canonical* form is guaranteed slot-pure.

#include "staging/bnb_stager.h"
#include "staging/ilp_stager.h"
#include "staging/stage.h"

namespace atlas::staging {

/// Per-engine tuning knobs; each engine reads its own sub-struct.
struct StagingOptions {
  IlpStagerOptions ilp;
  BnbStagerOptions bnb;
};

/// Stages `circuit` for `shape`: the exact ILP when the reduced model
/// has at most 12 gates, the circuit at most 9 qubits and the ILP
/// finishes within its node budget; the branch-and-bound search
/// otherwise. The result always passes verify::verify_staged(). Throws
/// atlas::Error when no staging exists (a gate with more non-insular
/// qubits than local capacity).
StagedCircuit stage_circuit(const Circuit& circuit, const MachineShape& shape,
                            const StagingOptions& options = {});

}  // namespace atlas::staging
