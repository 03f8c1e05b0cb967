#include "walk.h"

#include <string>

#include "core/pipeline.h"
#include "exec/remap.h"
#include "exec/stage_program.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace bench {
namespace {

using atlas::exec::KernelProgram;
using atlas::exec::KernelVariant;

/// The class of a bound kernel: the apply path of its first lowered
/// variant, "shm" for shared-memory programs, "scale" when every
/// variant only rescales the shard.
int kernel_class(const KernelProgram& kp) {
  for (const KernelVariant& v : kp.variants) {
    if (v.op == KernelVariant::Op::Shm) return 7;
    if (v.op == KernelVariant::Op::Fused) {
      switch (v.fused.path) {
        case atlas::ApplyPath::Dense1q: return 1;
        case atlas::ApplyPath::Diag1q: return 2;
        case atlas::ApplyPath::Dense2q: return 3;
        case atlas::ApplyPath::DiagK: return 4;
        case atlas::ApplyPath::PermK: return 5;
        case atlas::ApplyPath::DenseK: return 6;
      }
    }
  }
  return 0;
}

/// Span names per class, alive for the process (spans keep pointers).
const char* class_span(int c) {
  static const std::array<std::string, kNumClasses> names = [] {
    std::array<std::string, kNumClasses> n;
    for (int i = 0; i < kNumClasses; ++i)
      n[static_cast<std::size_t>(i)] = std::string("sim.") + kClassNames[i];
    return n;
  }();
  return names[static_cast<std::size_t>(c)].c_str();
}

}  // namespace

void Layers::add_compile(const atlas::CompiledCircuit& compiled) {
  const atlas::CompileDiagnostics& d = compiled.diagnostics();
  compiles += 1;
  compile_s += d.total_seconds;
  for (const atlas::CompilePhaseTiming& p : d.phases) {
    if (p.phase == "optimize") optimize_s += p.seconds;
    if (p.phase == "canonicalize") canonicalize_s += p.seconds;
    if (p.phase == "stage") stage_s += p.seconds;
    if (p.phase == "kernelize") kernelize_s += p.seconds;
    if (p.phase == "program") program_s += p.seconds;
  }
  const atlas::exec::ExecutionPlan& plan = *compiled.plan();
  stages += static_cast<double>(plan.stages.size());
  comm_cost += plan.staging_comm_cost;
  kernels += plan_kernels(plan);
  modeled_cost += plan.kernel_cost_total;
}

void Layers::merge(const Layers& o) {
  compiles += o.compiles;
  compile_s += o.compile_s;
  optimize_s += o.optimize_s;
  canonicalize_s += o.canonicalize_s;
  stage_s += o.stage_s;
  kernelize_s += o.kernelize_s;
  program_s += o.program_s;
  stages += o.stages;
  comm_cost += o.comm_cost;
  kernels += o.kernels;
  modeled_cost += o.modeled_cost;
  runs += o.runs;
  slot_values_s += o.slot_values_s;
  init_s += o.init_s;
  remap_s += o.remap_s;
  skeleton_s += o.skeleton_s;
  bind_s += o.bind_s;
  replay_s += o.replay_s;
  remap_bytes += o.remap_bytes;
  for (int c = 0; c < kNumClasses; ++c) {
    class_s[static_cast<std::size_t>(c)] += o.class_s[static_cast<std::size_t>(c)];
    class_bytes[static_cast<std::size_t>(c)] +=
        o.class_bytes[static_cast<std::size_t>(c)];
  }
}

void Layers::report(Report& r, double stream_gbps) const {
  const double per_compile = compiles > 0 ? 1e3 / compiles : 0;
  r.set("core.compile_ms", compile_s * per_compile, "ms");
  r.set("opt.optimize_ms", optimize_s * per_compile, "ms");
  r.set("core.canonicalize_ms", canonicalize_s * per_compile, "ms");
  r.set("staging.stage_ms", stage_s * per_compile, "ms");
  r.set("kernelize.kernelize_ms", kernelize_s * per_compile, "ms");
  r.set("core.program_ms", program_s * per_compile, "ms");
  const double n = compiles > 0 ? compiles : 1;
  r.set("staging.stages", stages / n, "count");
  r.set("staging.comm_cost", comm_cost / n, "cost");
  r.set("kernelize.kernels", kernels / n, "count");
  r.set("kernelize.modeled_cost", modeled_cost / n, "cost");

  const double per_run = runs > 0 ? 1e6 / runs : 0;
  r.set("core.slot_values_us", slot_values_s * per_run, "us");
  r.set("exec.init_us", init_s * per_run, "us");
  r.set("exec.remap_us", remap_s * per_run, "us");
  r.set("exec.skeleton_us", skeleton_s * per_run, "us");
  r.set("exec.bind_us", bind_s * per_run, "us");
  r.set("exec.replay_us", replay_s * per_run, "us");
  r.set("exec.remap_bytes", runs > 0 ? remap_bytes / runs : 0, "bytes");

  double all_s = 0, all_bytes = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    all_s += class_s[static_cast<std::size_t>(c)];
    all_bytes += class_bytes[static_cast<std::size_t>(c)];
  }
  const auto roofline = [&](double bytes, double s) {
    return s > 0 && stream_gbps > 0 ? bytes / s / 1e9 / stream_gbps * 100 : 0;
  };
  for (int c = 0; c < kNumClasses; ++c) {
    const double s = class_s[static_cast<std::size_t>(c)];
    const std::string cls = kClassNames[c];
    r.set("sim.apply_pct." + cls, all_s > 0 ? s / all_s * 100 : 0, "%");
    r.set("sim.roofline_pct." + cls,
          roofline(class_bytes[static_cast<std::size_t>(c)], s), "%");
  }
  r.set("sim.roofline_pct", roofline(all_bytes, all_s), "%");
  r.set("host.stream_gbps", stream_gbps, "GB/s");
}

Counters Counters::read(const atlas::Session& session) {
  namespace names = atlas::obs::names;
  Counters c;
  c.kernel_binds = static_cast<double>(atlas::exec::stage_kernel_binds());
  c.skeleton_hits =
      static_cast<double>(atlas::obs::counter(names::kSkeletonCacheHits).value());
  c.skeleton_misses = static_cast<double>(
      atlas::obs::counter(names::kSkeletonCacheMisses).value());
  c.plan_misses = static_cast<double>(session.plan_cache_stats().misses);
  return c;
}

void Counters::add_delta(const Counters& before, const Counters& after) {
  kernel_binds += after.kernel_binds - before.kernel_binds;
  skeleton_hits += after.skeleton_hits - before.skeleton_hits;
  skeleton_misses += after.skeleton_misses - before.skeleton_misses;
  plan_misses += after.plan_misses - before.plan_misses;
}

void report_counters(Report& r, const Counters& delta, double runs,
                     double kernels, double calls) {
  const double lookups = delta.skeleton_hits + delta.skeleton_misses;
  r.set("exec.kernel_binds_per_run", runs > 0 ? delta.kernel_binds / runs : 0,
        "count");
  r.set("exec.bind_reuse_ratio",
        kernels > 0 ? 1 - delta.kernel_binds / kernels : 0, "ratio");
  r.set("exec.skeleton_cache_hit_ratio",
        lookups > 0 ? delta.skeleton_hits / lookups : 0, "ratio");
  r.set("core.plan_cache_misses_per_call",
        calls > 0 ? delta.plan_misses / calls : 0, "count");
}

double plan_kernels(const atlas::exec::ExecutionPlan& plan) {
  double k = 0;
  for (const atlas::exec::PlannedStage& stage : plan.stages)
    k += static_cast<double>(stage.kernels.kernels.size());
  return k;
}

atlas::exec::DistState walk(const atlas::Session& session,
                            const atlas::CompiledCircuit& compiled,
                            const std::vector<double>& values, Layers& layers,
                            Recorder& rec, std::uint64_t op) {
  namespace exec = atlas::exec;
  const atlas::device::Cluster& cluster = session.cluster();
  const atlas::device::ClusterConfig& cfg = cluster.config();
  const exec::ExecutionPlan& plan = *compiled.plan();
  Recorder::Scope run_span(rec, "exec.run", op);

  Recorder::Scope slot_span(rec, "core.slot_values", op);
  const atlas::SlotValues slots = compiled.slot_values_from(values);
  layers.slot_values_s += slot_span.end();

  Recorder::Scope init_span(rec, "exec.init", op);
  exec::DistState state = session.executor().initial_state(plan, cluster);
  layers.init_s += init_span.end();

  atlas::ParamEnv env;
  env.slots = &slots;
  const std::size_t shards = static_cast<std::size_t>(state.num_shards());
  const atlas::Index shard_size = state.shard_size();
  const double kernel_bytes = 2.0 * static_cast<double>(shards) *
                              static_cast<double>(shard_size) *
                              sizeof(atlas::Amp);
  for (const exec::PlannedStage& stage : plan.stages) {
    Recorder::Scope stage_span(rec, "exec.stage", op);
    {
      Recorder::Scope s(rec, "exec.remap", op);
      const exec::Layout target = exec::Layout::for_partition(
          stage.partition, cfg.local_qubits, cfg.regional_qubits,
          state.layout());
      const atlas::device::CommStats moved = exec::remap(state, target, cluster);
      layers.remap_bytes += static_cast<double>(
          moved.intra_gpu_bytes + moved.intra_node_bytes +
          moved.inter_node_bytes);
      layers.remap_s += s.end();
    }
    std::shared_ptr<const exec::StageSkeleton> skeleton;
    {
      Recorder::Scope s(rec, "exec.skeleton", op);
      skeleton = stage.skeleton->get_or_build(state.layout(), [&] {
        return exec::compile_stage_skeleton(stage.subcircuit, stage.kernels,
                                            state.layout());
      });
      layers.skeleton_s += s.end();
    }
    exec::StageProgram program;
    {
      Recorder::Scope s(rec, "exec.bind", op);
      program = exec::bind_stage_program(stage.subcircuit, *skeleton, env);
      layers.bind_s += s.end();
    }
    Recorder::Scope replay_span(rec, "exec.replay", op);
    for (const std::shared_ptr<const exec::KernelProgram>& kernel :
         program.kernels) {
      const int c = kernel_class(*kernel);
      exec::StageProgram one;
      one.kernels.push_back(kernel);
      Recorder::Scope s(rec, class_span(c), op);
      cluster.pool().parallel_for(shards, [&](std::size_t k) {
        std::vector<atlas::Amp> scratch;
        exec::run_stage_program(one, static_cast<int>(k),
                                state.shard(static_cast<int>(k)).data(),
                                shard_size, scratch);
      });
      layers.class_s[static_cast<std::size_t>(c)] += s.end();
      layers.class_bytes[static_cast<std::size_t>(c)] += kernel_bytes;
    }
    state.layout().shard_xor = program.final_xor;
    layers.replay_s += replay_span.end();
  }
  layers.runs += 1;
  return state;
}

void note_self_times(Report& r, const Recorder& rec) {
  r.note("traced spans (count, total, self):");
  for (const auto& [name, t] : rec.totals()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-24s %8llu %12.3f ms %12.3f ms",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_s * 1e3, t.self_s * 1e3);
    r.note(line);
  }
}

}  // namespace bench
