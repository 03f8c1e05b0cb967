#pragma once

/// \file pass_manager.h
/// Runs an ordered pass pipeline over a circuit. Levels preset the
/// pass list, and OptOptions::enable appends passes to it:
///
///   0  nothing — the circuit passes through untouched (bit-identical
///      compile pipeline, the default);
///   1  local cleanups: cancel-inverses, merge-rotations,
///      drop-identities;
///   2  + block2q (CX-conjugated diagonal resynthesis), resynth-1q
///      (constant single-qubit run resynthesis), and the
///      commutation-aware reorder pass.
///
/// The local passes iterate to a fixpoint (each can expose work for
/// the others — a cancellation makes two rotations adjacent, a merge
/// exposes an inverse pair); reorder runs once at the end, after the
/// gate list has stopped shrinking. Every pass preserves the operator
/// exactly (opt/pass.h contract), so the optimizer may run in front of
/// *any* binding of a symbolic circuit.

#include <string>
#include <vector>

#include "opt/pass.h"

namespace atlas::opt {

/// Optimizer configuration: a level preset plus extra passes.
struct OptOptions {
  /// 0 (off, default) / 1 (local cleanups) / 2 (full).
  int level = 0;
  /// Extra passes to enable on top of the level preset (find_pass()
  /// names); unknown names throw at PassManager construction.
  std::vector<std::string> enable;
  /// Fixpoint iteration cap for the local-pass loop.
  int max_rounds = 4;
  PassOptions pass;
};

/// Per-pass accounting of one PassManager::run().
struct PassStats {
  std::string pass;
  /// Rounds in which the pass reported a change.
  int applications = 0;
  /// Net gates removed by this pass across all rounds (can be
  /// negative for count-neutral insularization rewrites).
  int gates_removed = 0;
  double seconds = 0;
};

struct OptReport {
  int gates_before = 0;
  int gates_after = 0;
  int rounds = 0;
  double seconds = 0;
  std::vector<PassStats> passes;
};

/// The pass names the level preset enables, in execution order. The
/// final "reorder" entry (level 2) runs once after the fixpoint loop.
std::vector<std::string> default_passes(int level);

class PassManager {
 public:
  /// Builds the pipeline for `options` (level preset plus enabled
  /// passes), resolving pass names through find_pass(). Throws
  /// atlas::Error on an unknown name or a level outside [0, 2].
  explicit PassManager(const OptOptions& options);

  /// The resolved pass names in execution order.
  std::vector<std::string> pass_names() const;

  /// Optimizes a copy of `circuit`; fills `report` when non-null.
  /// Deterministic: equal circuits and contexts yield equal outputs.
  Circuit run(const Circuit& circuit, const PassContext& ctx,
              OptReport* report = nullptr) const;

 private:
  OptOptions options_;
  /// Fixpoint-iterated local passes, then run-once tail passes.
  std::vector<const Pass*> loop_passes_;
  std::vector<const Pass*> tail_passes_;
};

}  // namespace atlas::opt
