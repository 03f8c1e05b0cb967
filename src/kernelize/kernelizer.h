#pragma once

/// \file kernelizer.h
/// Public facade for kernelization (the paper's KERNELIZE algorithm).
/// The engines are plain functions:
///
///  * kernelize_dp      — the KERNELIZE DP (Algorithm 3)
///  * kernelize_ordered — ORDEREDKERNELIZE (Algorithm 5, O(|C|^2))
///  * kernelize_greedy  — the greedy fusion baseline (Section VII-E)
///  * kernelize_best    — the production default the compile pipeline
///                        calls per stage
///
/// kernelize_best runs the DP and the ordered variant and returns the
/// cheaper result. The DP's single-qubit *attachment* preprocessing
/// (Appendix B-d) is a heuristic that can very occasionally cede a
/// fraction of a percent to the ordered DP on shallow circuits; taking
/// the min restores Theorem 6 unconditionally for the planner. The
/// ordered pass costs a small fraction of the DP, so it always runs.
/// Every engine returns a result that passes
/// verify::verify_kernelization() under its `model`.

#include "ir/circuit.h"
#include "kernelize/cost_model.h"
#include "kernelize/dp_kernelizer.h"
#include "kernelize/greedy.h"
#include "kernelize/kernel.h"
#include "kernelize/ordered.h"

namespace atlas::kernelize {

/// Production default: the cheaper of the DP and the ordered pass — see
/// the file comment.
Kernelization kernelize_best(const Circuit& circuit, const CostModel& model,
                             const DpOptions& options = {});

}  // namespace atlas::kernelize
