#include "exec/device_executor.h"

#include <cstring>
#include <vector>

#include "exec/stage_program.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace atlas::exec {

DeviceRunner::DeviceRunner(const device::Cluster& cluster)
    : cluster_(cluster),
      gpus_(cluster.config().total_gpus()),
      shard_size_(Index{1} << cluster.config().local_qubits),
      arena_(static_cast<std::size_t>(gpus_ * shard_size_)) {}

void DeviceRunner::run(const StageProgram& program, DistState& state) {
  static obs::Counter& uploads = obs::counter(obs::names::kDeviceUploadBytes);
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

}  // namespace atlas::exec
