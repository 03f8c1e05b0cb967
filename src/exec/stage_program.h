#pragma once

/// \file stage_program.h
/// Bind-time stage compilation: the layer between execution plans and
/// the per-shard loop. Binding a stage (compile_stage_skeleton() +
/// bind_stage_program()) runs once per stage per point and hoists
/// everything shard-invariant out of the hot loop:
///
///  * parameter materialization — every gate matrix is built by
///    resolving its Params against a ParamEnv (dense slot indexing for
///    canonical plans), with no subcircuit copy and no string lookups;
///  * gate localization — logical qubits are remapped to physical bit
///    positions against the stage layout once, not per shard;
///  * kernel lowering — fused matrices are multiplied out and
///    shared-memory gather/scatter offset tables are built once per
///    distinct non-local bit pattern, not per shard.
///
/// The only genuinely shard-dependent inputs are the values of the
/// shard's non-local bits. Before a shard executes a gate whose insular
/// qubits are non-local (Appendix B-a, "insular qubits"), their known
/// values are folded in, leaving a smaller purely local operation
/// (StageSkeleton::GateSlot::Case):
///
///  * non-local control = 0  -> the gate is the identity (Ctrl, skip);
///  * non-local control = 1  -> drop the control (Ctrl);
///  * fully diagonal gate    -> restrict the diagonal by the fixed
///                              bits (DiagRestrict), possibly down to a
///                              scalar (DiagScale);
///  * 1q anti-diagonal (X/Y) -> flip the shard-id mapping bit
///                              (layout.shard_xor) and scale by the
///                              anti-diagonal entry (Antidiag).
///
/// Staging guarantees every *non-insular* qubit is local, so these
/// four cases are exhaustive.
///
/// Each kernel therefore records the set of shard-id bits its gates'
/// cases read (`pattern_bits`) and a table of fully lowered variants
/// indexed by the gathered bit pattern — per-shard "specialization" is
/// a few bit tests and a table lookup. Since a kernel reading j shard
/// bits has at most 2^j <= num_shards distinct variants, compiling
/// variants eagerly never exceeds the old per-shard localization work
/// and is shared by every shard with the same pattern. The deliberate
/// tradeoff: the table is built serially and held for the stage, so
/// resident memory is O(variants) where the old code kept O(1)
/// transient state per shard worker — fine at in-process shard counts
/// (shards cost 2^L amplitudes each, dwarfing their variant); a run
/// with very many tiny shards would want lazy per-pattern memoization
/// instead.

/// Stage compilation is itself two-phase: everything that depends only
/// on gate *structure* and the layout — pattern bits, which gates fire
/// per variant, diagonal restriction indices, shm actives/offsets,
/// fused spans — lives in a StageSkeleton that sweeps and trajectory
/// batches compile once and cache on the plan (StageSkeletonCache on
/// PlannedStage); per binding only the matrix values are re-filled
/// (bind_stage_program). The cache counts its builds into the
/// `exec.skeleton_cache.misses` obs counter, so tests can prove a sweep
/// compiles each stage's structure exactly once.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "exec/layout.h"
#include "ir/circuit.h"
#include "ir/param.h"
#include "kernelize/kernel.h"
#include "sim/apply.h"
#include "sim/shm_executor.h"

namespace atlas::exec {

/// One kernel fully lowered for all shards matching a non-local bit
/// pattern: an optional scalar (diagonal/anti-diagonal contributions of
/// non-local qubits) plus either a fused matrix kernel or a compiled
/// shared-memory program.
struct KernelVariant {
  Amp scale{1.0, 0.0};
  enum class Op { None, Fused, Shm } op = Op::None;
  PreparedGate fused;
  ShmProgram shm;
};

struct KernelProgram {
  /// Shard-index bit positions this kernel's localization reads,
  /// ascending; empty when the kernel is identical on every shard (the
  /// common case — staging keeps non-insular qubits local).
  std::vector<int> pattern_bits;
  /// Lowered variants indexed by the gathered pattern (size
  /// 2^|pattern_bits|).
  std::vector<KernelVariant> variants;
  /// The resolved parameter values this program was bound under, in
  /// slot walk order (empty for kernels without parameters). Batched
  /// binds compare these against the new point's values: canonical
  /// plans carry every angle as a "$k" slot symbol, so value equality
  /// — not symbol presence — is what decides whether a kernel's fusion
  /// products can be shared across sweep points.
  std::vector<double> bound_values;
};

/// A stage compiled against a concrete layout and parameter
/// environment. Immutable after compilation; run_stage_program() is
/// const and called concurrently from every shard worker. Kernels are
/// held by shared_ptr so consecutive bindings of the same skeleton can
/// share the parameter-independent ones (the bind-many delta: a sweep
/// re-materializes only the kernels whose gates read a swept slot —
/// constant matrices, fusion products, and shm tables bind once and
/// are replayed by every launch of the batch).
struct StageProgram {
  std::vector<std::shared_ptr<const KernelProgram>> kernels;
  /// shard_xor in effect after the stage (anti-diagonal non-local gates
  /// flip shard-id mapping bits as they execute).
  Index final_xor = 0;
};

/// The binding-independent half of a compiled stage. Every field is a
/// pure function of gate structure (kinds, qubits, control counts —
/// plus the numeric content of explicit Unitary matrices, which carry
/// no parameters) and the layout; no gate parameter value enters, so
/// one skeleton serves every binding of a slot-canonical plan.
struct StageSkeleton {
  /// Structural half of a gate preparation: its shard-specialization
  /// case, physical bit positions, and shard-id decision bits — the
  /// matrix values are filled at bind time.
  struct GateSlot {
    enum class Case { Local, DiagScale, DiagRestrict, Antidiag, Ctrl };
    Case kind = Case::Local;
    int gate = 0;  ///< index into the stage subcircuit
    /// Local part: physical target/control bit positions (Local, Ctrl,
    /// and DiagRestrict targets).
    std::vector<int> targets, controls;
    /// DiagScale/DiagRestrict: gate-index-space positions of non-local
    /// and local qubits.
    std::vector<int> nonlocal_pos, local_pos;
    /// Shard-id bits this gate reads, plus the shard_xor correction in
    /// effect before it.
    std::vector<int> decision_bits;
    Index xor_adjust = 0;
  };
  /// One lowered variant, structurally: which slots contribute ops (in
  /// gate order, with the fixed non-local sub-index for diagonal
  /// restriction), which contribute scalar factors, and the kernel-type
  /// specific structure (fused span / shm skeleton).
  struct VariantSkeleton {
    struct Fired {
      int slot = 0;
      Index fixed = 0;  ///< DiagRestrict: non-local sub-index
    };
    std::vector<Fired> ops;
    struct ScaleTerm {
      int slot = 0;
      /// DiagScale: the diagonal index of the scalar entry; Antidiag:
      /// 0/1 selecting the m(1,0)/m(0,1) factor.
      Index sel = 0;
    };
    std::vector<ScaleTerm> scales;
    std::vector<int> fused_targets;  ///< Fusion kernels: bit_union span
    ShmSkeleton shm;                 ///< Shm kernels: actives/offsets
  };
  struct KernelSkeleton {
    std::vector<int> pattern_bits;
    kernelize::KernelType type = kernelize::KernelType::Fusion;
    std::vector<GateSlot> slots;
    std::vector<VariantSkeleton> variants;  ///< size 2^|pattern_bits|
    /// True when any slot's gate carries a non-constant Param: the
    /// bound KernelProgram then depends on the ParamEnv and must be
    /// re-materialized per binding. Constant kernels bind once and are
    /// shared across every binding of the skeleton (delta bind).
    bool param_dependent = false;
  };
  std::vector<KernelSkeleton> kernels;
  Index final_xor = 0;
  /// Digest of the layout this skeleton was compiled against (guards
  /// cache reuse across runs entering the stage with different
  /// layouts).
  std::uint64_t layout_digest = 0;
};

/// Hash of everything a StageSkeleton reads from the layout: qubit
/// positions, the local split, and the shard_xor correction.
std::uint64_t layout_digest(const Layout& layout);

/// Compiles the binding-independent skeleton of one planned stage.
/// Throws atlas::Error when a non-insular qubit is not local (staging
/// bug).
StageSkeleton compile_stage_skeleton(const Circuit& subcircuit,
                                     const kernelize::Kernelization& kernels,
                                     const Layout& layout);

/// Fills a skeleton with matrix values resolved against `env`: gate
/// matrices are materialized once per slot, fusion products multiplied
/// out, and shm programs bound over the cached gather maps. Throws
/// atlas::Error when a symbolic parameter cannot be resolved.
///
/// `reuse` (optional) must be a program previously bound from the SAME
/// skeleton: its parameter-independent kernels are shared instead of
/// re-materialized, so a batch of N bindings pays C + N*P kernel binds
/// (C constant kernels bound once, P parameter-dependent kernels per
/// binding) instead of N*(C+P). Every actual materialization counts in
/// stage_kernel_binds().
StageProgram bind_stage_program(const Circuit& subcircuit,
                                const StageSkeleton& skeleton,
                                const ParamEnv& env,
                                const StageProgram* reuse = nullptr);

/// Process-wide count of KernelProgram materializations inside
/// bind_stage_program(): the exec.kernel_binds obs counter. Regression
/// probe for the bind-many delta: a batched sweep re-binds only
/// parameter-dependent kernels per point.
std::uint64_t stage_kernel_binds();

/// Thread-safe lazy holder for one stage's skeleton, shared by every
/// run of the owning plan. Rebuilds (and replaces) the skeleton when a
/// run enters the stage under a different layout than the cached one —
/// correctness first; the steady state of sweeps and trajectory batches
/// is a single build.
class StageSkeletonCache {
 public:
  std::shared_ptr<const StageSkeleton> get_or_build(
      const Layout& layout, const std::function<StageSkeleton()>& build);

 private:
  Mutex mu_;
  std::shared_ptr<const StageSkeleton> cached_ ATLAS_GUARDED_BY(mu_);
};

/// Executes a compiled stage on one shard's buffer. `scratch` is
/// caller-provided shared-memory staging storage reused across kernels.
void run_stage_program(const StageProgram& prog, int shard, Amp* data,
                       Index size, std::vector<Amp>& scratch);

}  // namespace atlas::exec
