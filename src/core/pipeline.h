#pragma once

/// \file pipeline.h
/// The explicit multi-phase compile pipeline behind Session::compile():
///
///   optimize ──▶ canonicalize ──▶ stage ──▶ kernelize ──▶ program
///
/// * **optimize** — the opt/ pass pipeline (level from
///   SessionConfig::opt_level) rewrites the authored circuit exactly
///   (global phase included). It runs *before* slot canonicalization on
///   purpose: value-aware passes (constant run resynthesis, diagonal
///   folding) need the authored constants, and keying the plan cache on
///   the *post-optimization* structure lets equivalent authored
///   circuits — rz(a) rz(b) vs rz(a+b) — share one plan.
/// * **canonicalize** — every remaining rotation parameter (constant or
///   symbolic) becomes a dense slot symbol "$k"; the slot table maps
///   each slot back to the caller's affine expression.
/// * **stage / kernelize** — PARTITION on the canonical circuit
///   (staging::stage_circuit, then kernelize::kernelize_best per
///   stage), memoized through the session's plan cache (these phases
///   are skipped entirely on a cache hit; diagnostics record that).
/// * **program** — slot-program compilation and handle assembly.
///
/// Each phase hands its output to the next under a contract that the
/// verifier (verify/verify.h) checks in every build: verify_circuit
/// after optimize and canonicalize, verify_staged after stage,
/// verify_plan (verify_kernelization per stage) after kernelize, and
/// verify_compiled after program. Each phase is timed into
/// CompileDiagnostics, retrievable from the returned CompiledCircuit.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled.h"
#include "exec/executor.h"
#include "ir/circuit.h"
#include "kernelize/kernelizer.h"
#include "opt/pass_manager.h"
#include "staging/stager.h"
#include "verify/diagnostic.h"

namespace atlas {

struct CompilePhaseTiming {
  std::string phase;
  double seconds = 0;
  int gates_in = 0;
  int gates_out = 0;
};

struct CompileDiagnostics {
  /// One entry per executed phase, in order. stage/kernelize are
  /// absent when the plan cache already held the plan.
  std::vector<CompilePhaseTiming> phases;
  /// Per-pass optimizer accounting (empty pass list at opt_level 0).
  opt::OptReport opt;
  /// True when stage/kernelize were skipped via the plan cache.
  bool plan_cached = false;
  std::size_t num_stages = 0;
  double total_seconds = 0;
  /// The verify level the pipeline ran at.
  verify::VerifyLevel verify_level = verify::VerifyLevel::boundaries;
  /// Structured verifier findings. Populated right before the pipeline
  /// throws on a broken phase hand-off; empty on success. build_plan()
  /// callers passing a CompileDiagnostics keep these across the throw.
  std::vector<verify::VerifyDiagnostic> verify;
};

class CompilePipeline {
 public:
  struct Config {
    staging::MachineShape shape;
    staging::StagingOptions staging;
    kernelize::CostModel cost_model = kernelize::CostModel::default_model();
    kernelize::DpOptions kernelize;
    opt::OptOptions opt;
    /// Invariant checking at phase hand-offs (docs/VERIFY.md):
    /// `boundaries` runs the structural checkers after every phase,
    /// `paranoid` adds the numeric ones (unitarity). Cached plans were
    /// verified when built, so `boundaries` skips re-checking them on
    /// a cache hit; `paranoid` re-checks.
    verify::VerifyLevel verify = verify::VerifyLevel::boundaries;
  };

  /// The plan-cache seam: compile() hands the post-optimization key
  /// (plan_key()) and the canonical circuit to the resolver, which
  /// returns the cached plan or calls back into build_plan() and
  /// records the miss.
  using PlanResolver =
      std::function<std::shared_ptr<const exec::ExecutionPlan>(
          std::uint64_t key, const Circuit& canonical,
          CompileDiagnostics& diag)>;

  explicit CompilePipeline(Config config);

  /// Runs every phase over `circuit` and assembles the immutable
  /// handle. Thread-safe and deterministic.
  CompiledCircuit compile(const Circuit& circuit, std::uint64_t shape_salt,
                          const PlanResolver& resolver) const;

  /// The key compile() will use for `circuit`: the structural
  /// fingerprint of the *post-optimization* circuit, salted with the
  /// cluster shape.
  std::uint64_t plan_key(const Circuit& circuit,
                         std::uint64_t shape_salt) const;

  /// The stage -> kernelize -> assemble back half, usable for any
  /// circuit (the uncached Session::plan(), which the noise engine's
  /// per-trajectory plans also use, skips the front phases). `diag` may
  /// be null.
  exec::ExecutionPlan build_plan(const Circuit& circuit,
                                 CompileDiagnostics* diag) const;

  /// Just the optimize phase (introspection for tests and benches).
  Circuit optimize(const Circuit& circuit,
                   opt::OptReport* report = nullptr) const;

  const opt::PassManager& passes() const { return passes_; }

 private:
  Config config_;
  opt::PassManager passes_;
  opt::PassContext pass_ctx_;
};

}  // namespace atlas
