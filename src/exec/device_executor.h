#pragma once

/// \file device_executor.h
/// The device shard runner: EXECUTE over an explicit device-transfer
/// architecture. The one plan walk (execute_plan()) hands it each
/// point's bound stage, and it stages every shard through a slot of its
/// staging arena before replaying kernels on it, where InPlaceRunner
/// replays on the host shard buffers directly (and, when offloading,
/// the walk merely *meters* the staging traffic):
///
///   host shard --H2D--> GPU g's slot --LAUNCH--> --D2H--> host shard
///
/// Each modeled GPU is one task on the cluster pool that walks its
/// shards g, g+G, ... through its one slot in turn, so a GPU runs one
/// kernel at a time while the GPUs run in parallel, and the runner
/// returns once every shard is back. The numerical results are
/// bit-identical to InPlaceRunner — same walk, same kernels, same
/// order, on memcpy'd data — which tests/test_device_executor.cpp
/// asserts on offloading and non-offloading shapes alike.
///
/// Executor uses this runner when the cluster offloads, one runner (one
/// arena, one constant bind per stage) per execute_batch() call. The
/// CommStats metering is the walk's, so modeled-time figures are the
/// same for both runners; the *real* staged bytes appear separately in
/// the device.upload_bytes / device.download_bytes counters.

#include <vector>

#include "exec/executor.h"

namespace atlas::exec {

/// A staging arena of one shard slot per modeled GPU, allocated in the
/// constructor: a per-point execute() pays that allocation every call,
/// the fixed cost batching amortizes away.
class DeviceRunner final : public ShardRunner {
 public:
  explicit DeviceRunner(const device::Cluster& cluster);

  /// Replays `program` over every shard of `state` and returns once all
  /// are back in host memory. Modeled GPU g is one task on the cluster
  /// pool: it walks shards g, g+G, ... one at a time through its slot
  /// (H2D, launch, D2H), so each GPU runs one kernel at a time while the
  /// GPUs run in parallel.
  void run(const StageProgram& program, DistState& state) override;

 private:
  const device::Cluster& cluster_;
  int gpus_;  ///< modeled GPUs: total_gpus() <= num_shards()
  Index shard_size_;
  /// GPU g's slot is arena_[g * shard_size_, (g + 1) * shard_size_).
  std::vector<Amp> arena_;
};

}  // namespace atlas::exec
