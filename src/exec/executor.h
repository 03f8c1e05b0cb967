#pragma once

/// \file executor.h
/// The EXECUTE algorithm (paper Algorithm 1): runs a partitioned
/// circuit — stages of kernels — over the distributed state, doing the
/// all-to-all reshard between stages and launching each stage's
/// kernels on every shard in parallel. Supports DRAM offloading: when
/// the cluster has fewer GPUs than shards, shards are swapped through
/// the GPUs and the staging traffic is metered. There is one walk; how
/// shards reach a GPU is the ShardRunner's business.

#include <memory>
#include <vector>

#include "device/cluster.h"
#include "exec/dist_state.h"
#include "exec/stage_program.h"
#include "ir/circuit.h"
#include "kernelize/kernel.h"
#include "staging/stage.h"

namespace atlas::exec {

/// One stage ready for execution: the stage's gates as a subcircuit
/// (indices into the original circuit retained) plus its kernelization
/// and qubit partition.
struct PlannedStage {
  Circuit subcircuit;
  std::vector<int> original_indices;
  staging::QubitPartition partition;
  kernelize::Kernelization kernels;
  /// Lazily-built binding-independent stage skeleton (pattern bits,
  /// fired-gate sets, shm actives/offsets, fused spans), shared by
  /// every run of the owning plan: sweeps and trajectory batches only
  /// re-fill matrix values per point. Copies of a PlannedStage share
  /// the cache — plans are immutable once built, so that is sound.
  mutable std::shared_ptr<StageSkeletonCache> skeleton =
      std::make_shared<StageSkeletonCache>();
};

struct ExecutionPlan {
  std::vector<PlannedStage> stages;
  double staging_comm_cost = 0;   // Eq. (2) value from the stager
  double kernel_cost_total = 0;   // sum of kernel cost-model values
  /// When offloading, reload every shard once per *kernel* instead of
  /// once per stage (models QDAO-style block scheduling; Atlas plans
  /// always swap once per stage).
  bool offload_reload_per_kernel = false;
};

struct StageReport {
  double comm_seconds = 0;     // wall time in remap
  double compute_seconds = 0;  // wall time in kernels
  device::CommStats stats;
};

struct ExecutionReport {
  std::vector<StageReport> stages;
  device::CommStats totals;
  double wall_seconds = 0;
  double comm_seconds = 0;
  double compute_seconds = 0;

  /// Modeled end-to-end seconds on the target machine.
  double modeled_seconds(const device::CommCostModel& m, int gpus,
                         int nodes) const;
};

/// One point of a plan walk: the point's initial state (run in place)
/// and its parameter environment. The pointees must stay alive for the
/// whole call.
struct BatchPoint {
  DistState* state = nullptr;
  ParamEnv env;
};

/// The shard-replay seam of the plan walk: how one point's bound stage
/// reaches its shards. In place, the shards are replayed on the
/// cluster pool; the device backend stages them through a command
/// queue instead (exec/device_executor.cpp).
class ShardRunner {
 public:
  virtual ~ShardRunner() = default;
  /// Replays `program` on every shard of `state`. May return before the
  /// replay finishes; the walk calls barrier() before the next stage.
  virtual void run(std::shared_ptr<const StageProgram> program,
                   DistState& state) = 0;
  /// Blocks until every replay run() started has finished.
  virtual void barrier() {}
};

/// In-place replay: the point's shards run directly on the host buffers
/// over the cluster pool, and run() returns once they all finished.
class InPlaceRunner final : public ShardRunner {
 public:
  explicit InPlaceRunner(const device::Cluster& cluster) : cluster_(cluster) {}
  void run(std::shared_ptr<const StageProgram> program,
           DistState& state) override;

 private:
  const device::Cluster& cluster_;
};

/// EXECUTE over a list of points, stage by stage: per stage, each point
/// remaps into the stage's partition, binds the stage (cached skeleton;
/// later points delta-bind against the first point's program, so their
/// parameter-independent kernels are shared), and hands the program to
/// `runner`; one barrier closes the stage. Plans hold only gate
/// *structure*: symbolic parameters resolve against each point's
/// env.slots (dense slot table, canonical plans) or env.named (free user
/// symbols). Passing a plan with unbound symbols and an empty env throws
/// atlas::Error. Returns one report per point, in order; results are
/// bit-identical to walking each point alone.
std::vector<ExecutionReport> execute_plan(const ExecutionPlan& plan,
                                          const device::Cluster& cluster,
                                          const std::vector<BatchPoint>& points,
                                          ShardRunner& runner);

/// The walk for one point with in-place replay.
ExecutionReport execute_plan(const ExecutionPlan& plan,
                             const device::Cluster& cluster, DistState& state,
                             const ParamEnv& env = {});

/// Convenience: build the initial distributed state for a plan (stage
/// 0's partition as the initial layout, which is free — Eq. (2) only
/// charges transitions).
DistState initial_state(const ExecutionPlan& plan,
                        const device::Cluster& cluster);

/// Approximate heap footprint of a retained plan in bytes: gate
/// storage (qubit/param vectors, Unitary matrices), stage partitions,
/// and kernel index lists. Deliberately an estimate — it skips
/// allocator overhead and the lazily-built stage skeletons (which are
/// bounded by the same structure) — but it is stable for equal plans,
/// which is what cache-memory accounting needs.
std::size_t approx_resident_bytes(const ExecutionPlan& plan);

}  // namespace atlas::exec
