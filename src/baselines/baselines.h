#pragma once

/// \file baselines.h
/// Reimplementations of the comparison systems' partitioning and
/// execution *strategies* on the Atlas substrate. Holding the
/// simulation substrate fixed isolates exactly what the paper's
/// end-to-end comparison measures: the quality of circuit staging and
/// kernelization.
///
///  * Qiskit-like    — heuristic (SnuQS-style) staging, one kernel
///                     launch per gate, no fusion.
///  * cuQuantum-like — heuristic staging, greedy <=5-qubit fusion.
///  * HyQuas-like    — greedy contiguous-prefix staging, contiguous
///                     (ORDEREDKERNELIZE) kernel grouping with
///                     shared-memory kernels (SHM-GROUPING).
///  * QDAO-like      — DRAM offloading with per-kernel block reloads
///                     instead of Atlas' one swap per stage.

#include "core/session.h"
#include "ir/circuit.h"

namespace atlas::baselines {

enum class BaselineKind { Qiskit, CuQuantum, HyQuas, Qdao };

const char* baseline_name(BaselineKind kind);

/// Builds the baseline's execution plan for the given cluster shape.
exec::ExecutionPlan plan_baseline(BaselineKind kind, const Circuit& circuit,
                                  const SessionConfig& config);

struct BaselineResult {
  exec::ExecutionPlan plan;
  exec::ExecutionReport report;
  exec::DistState state;
};

/// Plans and executes the baseline end to end from |0...0> through
/// exec::Executor, so offloading shapes stage shards through the
/// device runner as Atlas' own runs do.
BaselineResult run_baseline(BaselineKind kind, const Circuit& circuit,
                            const SessionConfig& config);

}  // namespace atlas::baselines
