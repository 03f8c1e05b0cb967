#pragma once

// The traced run's decomposition of Session::run into calls to each
// layer's public functions, plus the per-layer sums every workload
// reports. The walk is the engine's execute path spelled out one call
// at a time: initial state, then per stage the remap, the cached
// skeleton, the bind and one shard-parallel launch per kernel. It must
// reproduce Session::run bit for bit; every workload asserts that.

#include <array>
#include <cstdint>
#include <vector>

#include "common.h"
#include "core/session.h"

namespace bench {

/// Apply-kernel classes: the fast paths of sim/apply.h, the
/// shared-memory executor, and pure scalar kernels.
inline constexpr int kNumClasses = 8;
inline constexpr const char* kClassNames[kNumClasses] = {
    "scale", "dense1q", "diag1q", "dense2q",
    "diagk", "permk",   "densek", "shm"};

/// Per-layer sums over a traced run.
struct Layers {
  // Compile phases, from CompiledCircuit::diagnostics().
  double compiles = 0;
  double compile_s = 0, optimize_s = 0, canonicalize_s = 0, stage_s = 0,
         kernelize_s = 0, program_s = 0;
  double stages = 0, comm_cost = 0, kernels = 0, modeled_cost = 0;
  // Walked runs.
  double runs = 0;
  double slot_values_s = 0, init_s = 0, remap_s = 0, skeleton_s = 0,
         bind_s = 0, replay_s = 0, remap_bytes = 0;
  std::array<double, kNumClasses> class_s{};
  std::array<double, kNumClasses> class_bytes{};

  void add_compile(const atlas::CompiledCircuit& compiled);
  void merge(const Layers& other);
  /// Sets the compile, exec and sim per-layer metrics.
  void report(Report& r, double stream_gbps) const;
};

/// Process-wide engine counters read around untraced Session calls.
struct Counters {
  double kernel_binds = 0;
  double skeleton_hits = 0;
  double skeleton_misses = 0;
  double plan_misses = 0;

  static Counters read(const atlas::Session& session);
  /// Accumulates the change from `before` to `after`.
  void add_delta(const Counters& before, const Counters& after);
};

/// Sets the exec/core ratio metrics from counter deltas accumulated
/// over `runs` executions of `kernels` plan kernels in all, made by
/// `calls` Session calls.
void report_counters(Report& r, const Counters& delta, double runs,
                     double kernels, double calls);

/// Kernels in a plan, summed over its stages.
double plan_kernels(const atlas::exec::ExecutionPlan& plan);

/// Session::run(compiled, values) decomposed into layer calls, each in
/// its own span under op `op`.
atlas::exec::DistState walk(const atlas::Session& session,
                            const atlas::CompiledCircuit& compiled,
                            const std::vector<double>& values, Layers& layers,
                            Recorder& rec, std::uint64_t op);

/// Sets trace.overhead_pct: traced seconds against untraced ones.
inline void report_overhead(Report& r, double traced_s, double untraced_s) {
  r.set("trace.overhead_pct", (traced_s / untraced_s - 1) * 100, "%");
}

/// Prints the recorder's per-span totals and self times to stderr.
void note_self_times(Report& r, const Recorder& rec);

}  // namespace bench
