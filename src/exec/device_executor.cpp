#include "exec/device_executor.h"

#include <cstring>
#include <vector>

#include "common/error.h"
#include "exec/stage_program.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace atlas::exec {
namespace {

/// The device shard runner: a staging arena of one shard slot per
/// modeled GPU, allocated once per execute()/execute_batch() call.
/// Per-point execution pays that allocation every call — the fixed cost
/// batching amortizes away.
class DeviceRunner final : public ShardRunner {
 public:
  explicit DeviceRunner(const device::Cluster& cluster)
      : cluster_(cluster),
        gpus_(cluster.config().total_gpus()),
        shard_size_(Index{1} << cluster.config().local_qubits),
        arena_(static_cast<std::size_t>(gpus_ * shard_size_)) {}

  /// Replays `program` over every shard of `state` and returns once all
  /// are back in host memory. Modeled GPU g is one task on the cluster
  /// pool: it walks shards g, g+G, ... one at a time through its slot
  /// (H2D, launch, D2H), so each GPU runs one kernel at a time while the
  /// GPUs run in parallel.
  void run(const StageProgram& program, DistState& state) override {
    static obs::Counter& uploads =
        obs::counter(obs::names::kDeviceUploadBytes);
    static obs::Counter& downloads =
        obs::counter(obs::names::kDeviceDownloadBytes);
    static obs::Counter& launches = obs::counter(obs::names::kDeviceLaunches);
    const int shards = state.num_shards();
    const std::size_t shard_bytes =
        static_cast<std::size_t>(shard_size_) * sizeof(Amp);
    cluster_.pool().parallel_for(
        static_cast<std::size_t>(gpus_), [&](std::size_t gpu) {
          const int g = static_cast<int>(gpu);
          Amp* slot = arena_.data() + g * shard_size_;
          std::vector<Amp> scratch;
          for (int s = g; s < shards; s += gpus_) {
            Amp* host = state.shard(s).data();
            {
              obs::TraceSpan span(obs::names::kSpanDeviceH2D, g);
              std::memcpy(slot, host, shard_bytes);
            }
            uploads.add(shard_bytes);
            {
              obs::TraceSpan span(obs::names::kSpanDeviceLaunch, g);
              run_stage_program(program, s, slot, shard_size_, scratch);
            }
            launches.inc();
            {
              obs::TraceSpan span(obs::names::kSpanDeviceD2H, g);
              std::memcpy(host, slot, shard_bytes);
            }
            downloads.add(shard_bytes);
          }
        });
  }

 private:
  const device::Cluster& cluster_;
  int gpus_;  ///< modeled GPUs: total_gpus() <= num_shards()
  Index shard_size_;
  /// GPU g's slot is arena_[g * shard_size_, (g + 1) * shard_size_).
  std::vector<Amp> arena_;
};

}  // namespace

std::uint64_t device_staging_bytes(const device::ClusterConfig& cfg) {
  const std::uint64_t shard_bytes = static_cast<std::uint64_t>(sizeof(Amp))
                                    << cfg.local_qubits;
  return static_cast<std::uint64_t>(cfg.total_gpus()) * shard_bytes;
}

void DeviceExecutor::validate(const device::ClusterConfig& cfg) const {
  if (cfg.max_staging_bytes == 0) return;
  const std::uint64_t need = device_staging_bytes(cfg);
  if (need > cfg.max_staging_bytes) {
    throw Error("the device executor needs a " + std::to_string(need) +
                    "-byte staging arena (1 slot x " +
                    std::to_string(cfg.total_gpus()) + " GPUs x " +
                    std::to_string(std::uint64_t{sizeof(Amp)}
                                   << cfg.local_qubits) +
                    "-byte shards) but the cluster caps staging at " +
                    std::to_string(cfg.max_staging_bytes) + " bytes",
                ErrorCode::capacity);
  }
}

std::vector<ExecutionReport> DeviceExecutor::execute_batch(
    const ExecutionPlan& plan, const device::Cluster& cluster,
    const std::vector<BatchPoint>& points) const {
  validate(cluster.config());
  if (points.empty()) return {};
  {
    static obs::Counter& batches = obs::counter(obs::names::kDeviceBatches);
    static obs::Histogram& batch_size =
        obs::histogram(obs::names::kDeviceBatchSize);
    // Each stage's constant tables upload once for the whole batch.
    static obs::Counter& const_uploads =
        obs::counter(obs::names::kDeviceConstUploads);
    batches.inc();
    batch_size.observe(static_cast<double>(points.size()));
    const_uploads.add(plan.stages.size());
  }
  obs::TraceSpan batch_span(obs::names::kSpanDeviceBatch,
                            static_cast<std::int64_t>(points.size()));
  DeviceRunner runner(cluster);
  return execute_plan(plan, cluster, points, runner);
}

}  // namespace atlas::exec
