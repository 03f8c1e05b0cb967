#pragma once

/// \file registry.h
/// The pluggable staging seam: a polymorphic Stager interface over the
/// STAGE engines (ilp, bnb, snuqs, auto) plus a string-keyed registry
/// so external engines can plug in without touching core headers.
/// SessionConfig::stager and stage_circuit() both select by name.

#include <memory>
#include <string>

#include "common/registry.h"
#include "staging/stager.h"

namespace atlas::staging {

/// A staging engine. Implementations must return a staging that passes
/// validate_staging() for the given shape, and throw atlas::Error when
/// none exists (e.g. a gate with more non-insular qubits than local
/// capacity).
///
/// Entry contract (the compile pipeline, core/pipeline.h): the circuit
/// a stager sees is *post-optimization and slot-canonical* — gate-level
/// rewrites (merging, resynthesis, commutation-aware reordering) have
/// already run at the session's opt_level, and every rotation-family
/// parameter is an engine slot symbol ("$k"), never a concrete value.
/// Stagers must therefore decide insularity/diagonality per gate kind
/// (paper Definition 2), never numerically — the same staging serves
/// every binding of the slots. Circuits from the uncached plan()
/// path and per-trajectory noise lowerings skip both front phases, so
/// concrete parameters (and non-unitary trajectory operators) remain
/// legal inputs; only the *canonical* form is guaranteed slot-pure.
class Stager {
 public:
  virtual ~Stager() = default;

  /// The registry key this engine was built for ("bnb", ...).
  virtual std::string name() const = 0;

  /// Stages `circuit` for `shape`. `options` carries the per-engine
  /// tuning knobs; engines read their own sub-struct and ignore the
  /// rest.
  virtual StagedCircuit stage(const Circuit& circuit,
                              const MachineShape& shape,
                              const StagingOptions& options) const = 0;
};

using StagerRegistry = Registry<Stager>;

/// The process-wide stager registry. Built-ins ("ilp", "bnb", "snuqs",
/// "auto") are registered on first access; user engines may be added
/// any time with stager_registry().add(name, factory).
StagerRegistry& stager_registry();

}  // namespace atlas::staging
