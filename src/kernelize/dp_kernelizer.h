#pragma once

/// \file dp_kernelizer.h
/// The KERNELIZE dynamic program (Section V, Algorithms 3 and 4).
///
/// DP states walk the gate sequence (after single-qubit attachment)
/// maintaining a set of *open kernels*, each represented — as in the
/// paper's Section VI-A — by its qubit set and its *extensible qubit
/// set* (Definition 3), plus a fusion/shared-memory type tag
/// (Section VI-B). A gate may join a kernel iff its qubits are all
/// extensible for it (Constraint 1: weak convexity + monotonicity);
/// joining freezes or shrinks other kernels' extensible sets exactly
/// per Algorithm 4. Kernels whose extensible set empties are closed
/// and their cost committed. States are deduplicated by structure and
/// pruned to a threshold T by post-processed cost (Section VI-B,
/// optimization f).
///
/// State representation: a state is its open kernels, its committed
/// cost and the head of its closed-kernel chain. An open kernel is a
/// plain record (qubit and extensible masks, width, type, accumulated
/// shared-memory cost) whose items are a chain of links in an item
/// trail the DP owns; a closed kernel is a record in a closed trail,
/// also DP-owned, linked to the state's previous closed kernel. Trail
/// links are immutable, so successors share their parent's chains and
/// a transition appends one link instead of copying item lists. The
/// frontier's keys and open kernels live in per-step bump storage, so
/// a successor costs no allocation beyond its hash-map node. Pruning
/// scores states from masks and costs alone; item lists are walked
/// only when the final candidates are reconstructed.
///
/// Implemented optimizations from Appendix B: subsumption transitions
/// (b), single-qubit attachment (d), greedy post-processing packing
/// (e), and threshold pruning (f). The insular-qubit constraint
/// lifting (a) is not implemented: every qubit of a gate, insular or
/// not, counts toward its kernel's qubit set and extensibility checks.

#include "ir/circuit.h"
#include "kernelize/cost_model.h"
#include "kernelize/kernel.h"

namespace atlas::kernelize {

struct DpOptions {
  /// Pruning threshold T (Appendix B-f); the paper uses 500.
  int prune_threshold = 500;
};

/// Kernelizes `circuit` (typically one stage's subcircuit) minimizing
/// total kernel cost under `model`. The result passes
/// verify::verify_kernelization().
Kernelization kernelize_dp(const Circuit& circuit, const CostModel& model,
                           const DpOptions& options = {});

}  // namespace atlas::kernelize
