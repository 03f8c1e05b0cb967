#include "core/pipeline.h"

#include <utility>

#include "common/error.h"
#include "common/fnv.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "staging/stage.h"
#include "verify/verify.h"

namespace atlas {
namespace {

/// Phase-boundary verification: copies any findings into `diag` (which
/// may outlive the throw when the caller owns it, as in build_plan)
/// and then throws through verify::check.
void check_phase(const verify::VerifyReport& report,
                 CompileDiagnostics* diag) {
  if (report.ok()) return;
  if (diag != nullptr)
    diag->verify.insert(diag->verify.end(), report.diags.begin(),
                        report.diags.end());
  verify::check(report);
}

/// Slot canonicalization: every parameter — concrete or symbolic —
/// becomes a slot symbol, so the cached plan is valid for any binding
/// and two structurally equal circuits build the exact same canonical
/// circuit. `slots` receives the table mapping slot k back to the
/// originating (gate, param) and the caller's expression.
Circuit canonicalize(const Circuit& circuit,
                     std::vector<CompiledCircuit::Slot>& slots) {
  Circuit canonical(circuit.num_qubits(), circuit.name());
  for (int gi = 0; gi < circuit.num_gates(); ++gi) {
    const Gate& g = circuit.gate(gi);
    if (g.params().empty()) {
      canonical.add(g);
      continue;
    }
    std::vector<Param> slot_params;
    slot_params.reserve(g.params().size());
    for (int pi = 0; pi < static_cast<int>(g.params().size()); ++pi) {
      const int index = static_cast<int>(slots.size());
      slots.push_back(CompiledCircuit::Slot{index, gi, pi, g.param(pi)});
      slot_params.push_back(Param::symbol(slot_symbol_name(index)));
    }
    canonical.add(g.with_params(std::move(slot_params)));
  }
  return canonical;
}

}  // namespace

CompilePipeline::CompilePipeline(Config config)
    : config_(std::move(config)), passes_(config_.opt) {
  pass_ctx_.num_local_qubits = config_.shape.num_local;
  pass_ctx_.options = config_.opt.pass;
}

Circuit CompilePipeline::optimize(const Circuit& circuit,
                                  opt::OptReport* report) const {
  return passes_.run(circuit, pass_ctx_, report);
}

std::uint64_t CompilePipeline::plan_key(const Circuit& circuit,
                                        std::uint64_t shape_salt) const {
  // Canonicalization replaces parameters with slot symbols but keeps
  // kinds, qubits, and parameter counts, so the canonical circuit's
  // structural fingerprint equals the optimized circuit's — the key
  // can skip building the canonical form.
  return fnv_mix(shape_salt, optimize(circuit).structural_fingerprint());
}

exec::ExecutionPlan CompilePipeline::build_plan(const Circuit& circuit,
                                                CompileDiagnostics* diag) const {
  ATLAS_CHECK(circuit.num_qubits() == config_.shape.total(),
              "circuit has " << circuit.num_qubits()
                             << " qubits but the cluster shape totals "
                             << config_.shape.total());
  Timer t;
  obs::TraceSpan stage_span(obs::names::kSpanCompileStage);
  const staging::StagedCircuit staged =
      staging::stage_circuit(circuit, config_.shape, config_.staging);
  check_phase(verify::verify_staged(circuit, staged, config_.shape), diag);
  stage_span.end();
  {
    static obs::Histogram& stage_us =
        obs::histogram(obs::names::kCompileStageUs);
    stage_us.observe(t.seconds() * 1e6);
  }
  if (diag != nullptr) {
    diag->phases.push_back({"stage", t.seconds(), circuit.num_gates(),
                            circuit.num_gates()});
    diag->num_stages = staged.stages.size();
  }

  t.reset();
  obs::TraceSpan kernelize_span(obs::names::kSpanCompileKernelize);
  exec::ExecutionPlan plan;
  plan.staging_comm_cost = staged.comm_cost;
  for (const auto& stage : staged.stages) {
    exec::PlannedStage ps;
    ps.original_indices = stage.gate_indices;
    ps.partition = stage.partition;
    ps.subcircuit = circuit.subcircuit(stage.gate_indices);
    ps.kernels = kernelize::kernelize_best(ps.subcircuit, config_.cost_model,
                                           config_.kernelize);
    plan.kernel_cost_total += ps.kernels.total_cost;
    plan.stages.push_back(std::move(ps));
  }
  check_phase(verify::verify_plan(plan, config_.shape, config_.cost_model,
                                  &circuit, config_.verify),
              diag);
  kernelize_span.end();
  {
    static obs::Histogram& kernelize_us =
        obs::histogram(obs::names::kCompileKernelizeUs);
    kernelize_us.observe(t.seconds() * 1e6);
  }
  if (diag != nullptr)
    diag->phases.push_back({"kernelize", t.seconds(), circuit.num_gates(),
                            circuit.num_gates()});
  return plan;
}

CompiledCircuit CompilePipeline::compile(const Circuit& circuit,
                                         std::uint64_t shape_salt,
                                         const PlanResolver& resolver) const {
  CompiledCircuit cc;
  auto diag = std::make_shared<CompileDiagnostics>();
  diag->verify_level = config_.verify;
  Timer total;
  {
    static obs::Counter& compiles = obs::counter(obs::names::kCompileCount);
    compiles.inc();
  }

  // Phase 1: optimize (a no-op pipeline at level 0 — bit-identical).
  Timer t;
  obs::TraceSpan optimize_span(obs::names::kSpanCompileOptimize);
  Circuit optimized = passes_.run(circuit, pass_ctx_, &diag->opt);
  check_phase(verify::verify_circuit(optimized, config_.verify), diag.get());
  optimize_span.end();
  {
    static obs::Histogram& optimize_us =
        obs::histogram(obs::names::kCompileOptimizeUs);
    optimize_us.observe(t.seconds() * 1e6);
  }
  diag->phases.push_back({"optimize", t.seconds(), circuit.num_gates(),
                          optimized.num_gates()});

  // Phase 2: canonicalize (parameters -> dense slots).
  t.reset();
  obs::TraceSpan canonicalize_span(obs::names::kSpanCompileCanonicalize);
  auto optimized_shared = std::make_shared<const Circuit>(std::move(optimized));
  Circuit canonical = canonicalize(*optimized_shared, cc.slots_);
  check_phase(verify::verify_circuit(canonical, config_.verify), diag.get());
  canonicalize_span.end();
  {
    static obs::Histogram& canonicalize_us =
        obs::histogram(obs::names::kCompileCanonicalizeUs);
    canonicalize_us.observe(t.seconds() * 1e6);
  }
  diag->phases.push_back({"canonicalize", t.seconds(),
                          optimized_shared->num_gates(),
                          canonical.num_gates()});

  cc.circuit_ = std::make_shared<const Circuit>(circuit);
  cc.optimized_ = optimized_shared;
  cc.symbols_ = optimized_shared->symbols();
  cc.shape_salt_ = shape_salt;
  cc.plan_key_ = fnv_mix(shape_salt, canonical.structural_fingerprint());

  // Phases 3+4: stage + kernelize, through the plan cache. A freshly
  // built plan is verified inside build_plan(); at paranoid the
  // cache-hit path re-verifies the cached plan too.
  cc.plan_ = resolver(cc.plan_key_, canonical, *diag);
  ATLAS_CHECK(cc.plan_ != nullptr, "plan resolver returned null");
  if (config_.verify == verify::VerifyLevel::paranoid && diag->plan_cached)
    check_phase(verify::verify_plan(*cc.plan_, config_.shape,
                                    config_.cost_model, &canonical,
                                    config_.verify),
                diag.get());

  // Phase 5: program — slot-program compilation + handle assembly.
  t.reset();
  obs::TraceSpan program_span(obs::names::kSpanCompileProgram);
  cc.build_slot_programs();
  check_phase(verify::verify_compiled(cc), diag.get());
  program_span.end();
  {
    static obs::Histogram& program_us =
        obs::histogram(obs::names::kCompileProgramUs);
    program_us.observe(t.seconds() * 1e6);
  }
  diag->num_stages = cc.plan_->stages.size();
  diag->phases.push_back({"program", t.seconds(), canonical.num_gates(),
                          canonical.num_gates()});

  diag->total_seconds = total.seconds();
  {
    static obs::Histogram& total_us =
        obs::histogram(obs::names::kCompileTotalUs);
    total_us.observe(diag->total_seconds * 1e6);
  }
  cc.diagnostics_ = std::move(diag);
  return cc;
}

}  // namespace atlas
