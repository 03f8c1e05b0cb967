#pragma once

/// \file pass.h
/// The gate-level optimizer pass interface. A Pass is a named circuit
/// rewrite run by the PassManager (opt/pass_manager.h) between
/// authoring and slot canonicalization in the compile pipeline
/// (core/pipeline.h).
///
/// Contract every pass must honor:
///  * **Exact equivalence.** The rewritten circuit applies the *same*
///    operator — global phase included — up to floating-point roundoff
///    of mathematically exact identities. No pass may drop a global
///    phase by default (that would break the engine's tolerance-based
///    oracles); phase-dropping rewrites gate on
///    PassOptions::up_to_global_phase.
///  * **Symbolic-parameter safety.** Rotation parameters may be affine
///    symbolic expressions (ir/param.h). A pass either treats them
///    opaquely, reasons syntactically (e.g. theta + (-theta) == 0), or
///    accumulates them affinely; it must never require a numeric value
///    that is not syntactically constant.
///  * **Determinism.** Output depends only on the input circuit and the
///    context — never on addresses, time, or randomness — so equal
///    circuits optimize equally and plan-cache keys stay stable.
///
/// The built-in passes live in a fixed name table (find_pass()); the
/// PassManager resolves its level preset and OptOptions::enable
/// through it.

#include <string>

#include "ir/circuit.h"

namespace atlas::opt {

/// Shared numeric/behavioral knobs threaded to every pass.
struct PassOptions {
  /// Max |entry| deviation for treating a matrix as the exact identity.
  double identity_tol = 1e-12;
  /// Allow rewrites that change the global phase (identity elimination
  /// of e^{ia}*I gates). Off by default: the engine's oracles compare
  /// amplitudes, not rays.
  bool up_to_global_phase = false;
  /// Minimum length of a constant single-qubit run worth resynthesizing
  /// into one gate.
  int min_run_length = 2;
  /// Gate-count ceiling for the O(n^2) commutation-aware reorder pass.
  int reorder_max_gates = 4096;
};

/// Everything a pass may consult besides the circuit itself.
struct PassContext {
  /// Local qubits per shard of the target machine; the reorder pass
  /// uses it to estimate stage counts. 0 = unknown (reorder no-ops).
  int num_local_qubits = 0;
  PassOptions options;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  /// Rewrites `circuit` in place; returns true iff anything changed.
  virtual bool run(Circuit& circuit, const PassContext& ctx) const = 0;
};

/// The built-in pass named `name` ("cancel-inverses",
/// "merge-rotations", "block2q", "resynth-1q", "drop-identities",
/// "reorder"). Throws atlas::Error listing the known names on an
/// unknown one.
const Pass& find_pass(const std::string& name);

}  // namespace atlas::opt
