#include "exec/device_executor.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.h"
#include "device/command_queue.h"
#include "exec/stage_program.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace atlas::exec {
namespace {

/// The device shard runner: everything allocated once per
/// execute()/execute_batch() call — the staging arena (two shard slots
/// per modeled GPU) and the command queue. Per-point execution pays
/// this whole setup every call — exactly the fixed cost batching
/// amortizes away.
class DeviceRunner final : public ShardRunner {
 public:
  explicit DeviceRunner(const device::Cluster& cluster)
      : gpus_(std::min(cluster.config().total_gpus(),
                       cluster.config().num_shards())),
        shard_size_(Index{1} << cluster.config().local_qubits),
        arena_(static_cast<std::size_t>(2 * gpus_ * shard_size_)),
        queue_(cluster.pool(), gpus_, 2 * gpus_) {}

  /// Enqueues one point's replay of `program` over every shard of
  /// `state`, pipelined: per round, all H2Ds land first, then all
  /// launches, then the *previous* round's D2Hs — so while round r
  /// replays out of one slot parity, the worker is already filling the
  /// other parity with round r+1's shards. FIFO order keeps each slot's
  /// copy/launch/copy dependence correct; the pending-count domains in
  /// the queue provide the cross-command waits. The walk remaps and
  /// binds the next point while the queue drains this one.
  void run(std::shared_ptr<const StageProgram> program,
           DistState& state) override {
    // The stage's first program carries every kernel — the
    // constant-table upload, paid once per stage per call.
    if (!stage_uploaded_) {
      static obs::Counter& const_uploads =
          obs::counter(obs::names::kDeviceConstUploads);
      const_uploads.inc();
      stage_uploaded_ = true;
    }
    const int shards = state.num_shards();
    const int rounds = (shards + gpus_ - 1) / gpus_;
    const std::size_t shard_bytes =
        static_cast<std::size_t>(shard_size_) * sizeof(Amp);
    const auto slot_of = [](int r, int g) { return g * 2 + (r & 1); };
    const auto each_gpu = [&](int r, const auto& fn) {
      for (int g = 0; g < gpus_ && r * gpus_ + g < shards; ++g)
        fn(g, r * gpus_ + g);
    };
    // One extra round (with no shards of its own) downloads the last.
    for (int r = 0; r <= rounds; ++r) {
      each_gpu(r, [&](int g, int s) {
        queue_.enqueue_h2d(slot(slot_of(r, g)), state.shard(s).data(),
                           shard_bytes, slot_of(r, g));
      });
      each_gpu(r, [&](int g, int s) {
        queue_.enqueue_launch(
            [program, buf = slot(slot_of(r, g)), s, size = shard_size_] {
              std::vector<Amp> scratch;
              run_stage_program(*program, s, buf, size, scratch);
            },
            g, slot_of(r, g));
      });
      if (r > 0) {
        each_gpu(r - 1, [&](int g, int s) {
          queue_.enqueue_d2h(slot(slot_of(r - 1, g)), state.shard(s).data(),
                             shard_bytes, slot_of(r - 1, g));
        });
      }
    }
  }

  void barrier() override {
    queue_.sync();
    stage_uploaded_ = false;
  }

 private:
  Amp* slot(int i) { return arena_.data() + i * shard_size_; }

  int gpus_;  ///< modeled GPUs in use: min(total GPUs, shards)
  Index shard_size_;
  bool stage_uploaded_ = false;
  /// Slot i is arena_[i * shard_size_, (i + 1) * shard_size_), two per
  /// GPU. Declared before queue_: the queue's destructor drains every
  /// in-flight launch before the arena is freed.
  std::vector<Amp> arena_;
  device::CommandQueue queue_;
};

}  // namespace

std::uint64_t device_staging_bytes(const device::ClusterConfig& cfg) {
  const std::uint64_t shard_bytes = static_cast<std::uint64_t>(sizeof(Amp))
                                    << cfg.local_qubits;
  return 2ull * static_cast<std::uint64_t>(cfg.total_gpus()) * shard_bytes;
}

void DeviceExecutor::validate(const device::ClusterConfig& cfg) const {
  if (cfg.max_staging_bytes == 0) return;
  const std::uint64_t need = device_staging_bytes(cfg);
  if (need > cfg.max_staging_bytes) {
    throw Error("the device executor needs a " + std::to_string(need) +
                    "-byte staging arena (2 slots x " +
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
    batches.inc();
    batch_size.observe(static_cast<double>(points.size()));
  }
  obs::TraceSpan batch_span(obs::names::kSpanDeviceBatch,
                            static_cast<std::int64_t>(points.size()));
  DeviceRunner runner(cluster);
  return execute_plan(plan, cluster, points, runner);
}

}  // namespace atlas::exec
