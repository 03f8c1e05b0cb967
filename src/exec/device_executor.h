#pragma once

/// \file device_executor.h
/// The "device" executor backend: EXECUTE over an explicit
/// device-transfer architecture. It runs the one plan walk
/// (execute_plan()) with a shard runner that actually stages every
/// shard through a slot of its staging arena before replaying kernels
/// on it, where the in-place runner replays on the host shard buffers
/// directly (and, when offloading, the walk merely *meters* the staging
/// traffic):
///
///   host shard --H2D--> GPU g's slot --LAUNCH--> --D2H--> host shard
///
/// Each modeled GPU is one task on the cluster pool that walks its
/// shards g, g+G, ... through its one slot in turn, so a GPU runs one
/// kernel at a time while the GPUs run in parallel, and the runner
/// returns once every shard is back. The numerical results are
/// bit-identical to "inmemory" — same walk, same kernels, same order,
/// on memcpy'd data — which is asserted by
/// tests/test_device_executor.cpp and in-bench.
///
/// Per-point execute() is a batch of one, so it pays the full lifecycle
/// every call: arena allocation and constant-table binds per stage.
/// execute_batch() hoists both out of the point loop — one arena and one
/// constant bind per stage for the whole batch, with each later point
/// binding only its delta (the parameter-dependent kernels) — so
/// per-point overhead amortizes to the transfers that genuinely must
/// happen.
///
/// The CommStats metering is the walk's, so modeled-time figures are
/// the same on every backend; the *real* staged bytes appear separately
/// in the device.upload_bytes / device.download_bytes counters.

#include <vector>

#include "exec/backend.h"

namespace atlas::exec {

class DeviceExecutor final : public ExecutorBackend {
 public:
  std::string name() const override { return "device"; }

  /// Refuses clusters whose staging arena (one shard slot per physical
  /// GPU) exceeds ClusterConfig::max_staging_bytes (0 = unlimited) with
  /// a typed capacity error.
  void validate(const device::ClusterConfig& cfg) const override;

  bool batched_launches(const device::ClusterConfig&) const override {
    return true;
  }

  std::vector<ExecutionReport> execute_batch(
      const ExecutionPlan& plan, const device::Cluster& cluster,
      const std::vector<BatchPoint>& points) const override;
};

/// The staging arena footprint the device backend needs for `cfg`:
/// one slot per GPU, total GPUs x shard bytes.
std::uint64_t device_staging_bytes(const device::ClusterConfig& cfg);

}  // namespace atlas::exec
