#pragma once

/// \file kernelizer.h
/// The pluggable kernelization seam: a polymorphic Kernelizer
/// interface over the KERNELIZE engines plus a string-keyed registry
/// so external engines can plug in without touching core headers.
/// Built-ins:
///
///  * "dp"      — the KERNELIZE DP (Algorithm 3)
///  * "ordered" — ORDEREDKERNELIZE (Algorithm 5, O(|C|^2))
///  * "greedy"  — the greedy fusion baseline (Section VII-E)
///  * "best"    — kernelize_best(), the production default
///
/// kernelize_best runs the DP and the ordered variant and returns the
/// cheaper result. The DP's single-qubit *attachment* preprocessing
/// (Appendix B-d) is a heuristic that can very occasionally cede a
/// fraction of a percent to the ordered DP on shallow circuits; taking
/// the min restores Theorem 6 unconditionally for the planner. The
/// ordered pass costs a small fraction of the DP, so it always runs;
/// the "dp" engine is the DP alone.

#include <memory>
#include <string>

#include "common/registry.h"
#include "ir/circuit.h"
#include "kernelize/cost_model.h"
#include "kernelize/dp_kernelizer.h"
#include "kernelize/kernel.h"

namespace atlas::kernelize {

/// A kernelization engine. Implementations must return a result that
/// passes validate_kernelization() under `model`.
class Kernelizer {
 public:
  virtual ~Kernelizer() = default;

  /// The registry key this engine was built for ("dp", ...).
  virtual std::string name() const = 0;

  /// Kernelizes `circuit` (typically one stage's subcircuit) under
  /// `model`. Engines read the DpOptions knobs they understand and
  /// ignore the rest.
  virtual Kernelization kernelize(const Circuit& circuit,
                                  const CostModel& model,
                                  const DpOptions& options) const = 0;
};

using KernelizerRegistry = Registry<Kernelizer>;

/// The process-wide kernelizer registry. Built-ins ("dp", "ordered",
/// "greedy", "best") are registered on first access; user engines may
/// be added any time with kernelizer_registry().add(name, factory).
KernelizerRegistry& kernelizer_registry();

/// Production default: the cheaper of the DP and the ordered pass — see
/// the file comment.
Kernelization kernelize_best(const Circuit& circuit, const CostModel& model,
                             const DpOptions& options = {});

}  // namespace atlas::kernelize
