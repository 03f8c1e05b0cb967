#include "exec/executor.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "common/timer.h"
#include "exec/device_executor.h"
#include "exec/remap.h"
#include "exec/stage_program.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace atlas::exec {

void InPlaceRunner::run(const StageProgram& program, DistState& state) {
  const Index shard_size = state.shard_size();
  cluster_.pool().parallel_for(
      static_cast<std::size_t>(state.num_shards()), [&](std::size_t s) {
        obs::TraceSpan shard_span(obs::names::kSpanExecShard,
                                  static_cast<std::int64_t>(s));
        std::vector<Amp> scratch;
        run_stage_program(program, static_cast<int>(s),
                          state.shard(static_cast<int>(s)).data(), shard_size,
                          scratch);
      });
}

double ExecutionReport::modeled_seconds(const device::CommCostModel& m,
                                        int gpus, int nodes) const {
  return totals.modeled_comm_seconds(m, gpus, nodes) +
         totals.modeled_compute_seconds(m, gpus);
}

DistState initial_state(const ExecutionPlan& plan,
                        const device::Cluster& cluster) {
  const auto& cfg = cluster.config();
  ATLAS_CHECK(!plan.stages.empty(), "empty execution plan");
  const Layout layout = Layout::for_partition(
      plan.stages.front().partition, cfg.local_qubits, cfg.regional_qubits,
      Layout::identity(cfg.total_qubits(), cfg.local_qubits));
  return DistState::zero_state(layout, &cluster.pool());
}

std::vector<ExecutionReport> execute_plan(const ExecutionPlan& plan,
                                          const device::Cluster& cluster,
                                          const std::vector<BatchPoint>& points,
                                          ShardRunner& runner) {
  const auto& cfg = cluster.config();
  for (const BatchPoint& p : points) {
    ATLAS_CHECK(p.state, "null state in a plan-walk point");
    ATLAS_CHECK(p.state->num_qubits() == cfg.total_qubits(),
                "state does not match the cluster shape");
  }
  static obs::Counter& runs = obs::counter(obs::names::kExecRuns);
  static obs::Histogram& stage_us = obs::histogram(obs::names::kExecStageUs);
  static obs::Histogram& remap_us = obs::histogram(obs::names::kExecRemapUs);
  static obs::Counter& remap_bytes =
      obs::counter(obs::names::kExecRemapBytes);
  runs.add(points.size());
  Timer total_timer;
  std::vector<ExecutionReport> reports(points.size());
  const Index shard_size = Index{1} << cfg.local_qubits;

  std::int64_t stage_index = 0;
  for (const PlannedStage& stage : plan.stages) {
    obs::TraceSpan stage_span(obs::names::kSpanExecStage, stage_index);
    Timer stage_timer;

    // Modeled traffic, the same for every point: kernel cost-model units
    // as bytes streamed, and under DRAM offloading each resident shard
    // staged in and out of a GPU once per stage (Atlas), or once per
    // kernel for baselines without stage-level planning.
    device::CommStats metered;
    for (const auto& kernel : stage.kernels.kernels)
      metered.kernel_bytes += static_cast<std::uint64_t>(
          kernel.cost * static_cast<double>(shard_size) * sizeof(Amp) *
          cfg.num_shards());
    if (cfg.offloading()) {
      const std::uint64_t reloads =
          plan.offload_reload_per_kernel
              ? std::max<std::uint64_t>(1, stage.kernels.kernels.size())
              : 1;
      metered.offload_bytes +=
          2ull * reloads * cfg.num_shards() * shard_size * sizeof(Amp);
    }

    // The first point binds every kernel; later points bound from the
    // same skeleton share its parameter-independent kernels and bind
    // only their delta.
    std::shared_ptr<const StageSkeleton> base_skeleton;
    std::optional<StageProgram> base;
    for (std::size_t p = 0; p < points.size(); ++p) {
      DistState& state = *points[p].state;
      const ParamEnv& env = points[p].env;
      StageReport sr;

      // SHARD: permute the point's state into the stage's partition.
      {
        obs::TraceSpan remap_span(obs::names::kSpanExecRemap, stage_index);
        Timer t;
        const Layout target = Layout::for_partition(
            stage.partition, cfg.local_qubits, cfg.regional_qubits,
            state.layout());
        sr.stats += remap(state, target, cluster);
        sr.comm_seconds = t.seconds();
        remap_us.observe(sr.comm_seconds * 1e6);
        remap_bytes.add(sr.stats.intra_gpu_bytes + sr.stats.intra_node_bytes +
                        sr.stats.inter_node_bytes);
      }

      // Kernels: bind the stage once per point — parameter
      // materialization, gate localization, fusion products and shm
      // gather maps are all shard-invariant — then replay the program on
      // every shard, where only the cheap non-local-bit decisions remain.
      Timer t;
      ATLAS_CHECK(!stage.subcircuit.is_parameterized() || !env.empty(),
                  "execution plan has unbound symbolic parameters ("
                      << stage.subcircuit.symbols().front()
                      << ", ...); pass a ParamBinding");
      // The binding-independent skeleton is cached on the plan: repeat
      // runs (sweep points, noise trajectories) only re-fill matrix
      // values.
      obs::TraceSpan bind_span(obs::names::kSpanExecBind, stage_index);
      const std::shared_ptr<const StageSkeleton> skeleton =
          stage.skeleton->get_or_build(state.layout(), [&] {
            return compile_stage_skeleton(stage.subcircuit, stage.kernels,
                                          state.layout());
          });
      StageProgram program = bind_stage_program(
          stage.subcircuit, *skeleton, env,
          skeleton == base_skeleton ? &*base : nullptr);
      bind_span.end();

      sr.stats += metered;
      runner.run(program, state);
      state.layout().shard_xor = program.final_xor;
      if (!base) {
        base = std::move(program);
        base_skeleton = skeleton;
      }
      sr.compute_seconds = t.seconds();

      ExecutionReport& report = reports[p];
      report.totals += sr.stats;
      report.comm_seconds += sr.comm_seconds;
      report.compute_seconds += sr.compute_seconds;
      report.stages.push_back(std::move(sr));
    }
    stage_span.end();
    stage_us.observe(stage_timer.seconds() * 1e6);
    ++stage_index;
  }
  const double wall = total_timer.seconds();
  for (ExecutionReport& r : reports) r.wall_seconds = wall;
  return reports;
}

std::vector<ExecutionReport> Executor::execute_batch(
    const ExecutionPlan& plan, const device::Cluster& cluster,
    const std::vector<BatchPoint>& points) const {
  if (points.empty()) return {};
  if (!cluster.config().offloading()) {
    InPlaceRunner runner(cluster);
    return execute_plan(plan, cluster, points, runner);
  }
  static obs::Counter& batches = obs::counter(obs::names::kDeviceBatches);
  static obs::Histogram& batch_size =
      obs::histogram(obs::names::kDeviceBatchSize);
  // Each stage's constant tables upload once for the whole batch.
  static obs::Counter& const_uploads =
      obs::counter(obs::names::kDeviceConstUploads);
  batches.inc();
  batch_size.observe(static_cast<double>(points.size()));
  const_uploads.add(plan.stages.size());
  obs::TraceSpan batch_span(obs::names::kSpanDeviceBatch,
                            static_cast<std::int64_t>(points.size()));
  DeviceRunner runner(cluster);
  return execute_plan(plan, cluster, points, runner);
}

std::size_t approx_resident_bytes(const ExecutionPlan& plan) {
  std::size_t bytes = sizeof(ExecutionPlan);
  for (const PlannedStage& stage : plan.stages) {
    bytes += sizeof(PlannedStage);
    for (const Gate& g : stage.subcircuit.gates()) {
      bytes += sizeof(Gate);
      bytes += g.qubits().size() * sizeof(Qubit);
      bytes += g.params().size() * sizeof(Param);
      if (g.kind() == GateKind::Unitary) {
        // A Unitary's explicit target matrix: 2^T x 2^T complex doubles.
        bytes += (sizeof(Amp) << (2 * g.num_targets()));
      }
    }
    bytes += stage.original_indices.size() * sizeof(int);
    bytes += (stage.partition.local.size() + stage.partition.regional.size() +
              stage.partition.global.size()) *
             sizeof(Qubit);
    for (const kernelize::Kernel& k : stage.kernels.kernels) {
      bytes += sizeof(kernelize::Kernel);
      bytes += k.gate_indices.size() * sizeof(int);
      bytes += k.qubits.size() * sizeof(Qubit);
    }
  }
  return bytes;
}

}  // namespace atlas::exec
