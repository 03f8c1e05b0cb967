#include "exec/stage_program.h"

#include <algorithm>
#include <utility>

#include "common/bits.h"
#include "common/error.h"
#include "common/fnv.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "sim/fusion.h"

namespace atlas::exec {
namespace {

obs::Counter& kernel_binds() {
  static obs::Counter& c = obs::counter(obs::names::kExecKernelBinds);
  return c;
}

using GateSlot = StageSkeleton::GateSlot;
using VariantSkeleton = StageSkeleton::VariantSkeleton;
using KernelSkeleton = StageSkeleton::KernelSkeleton;

/// Shard-invariant *structural* preparation of one gate against the
/// stage layout: its qubits are remapped to physical bit positions and
/// its shard-dependence is reduced to a list of shard-index bits plus
/// how to react to them: the case split documented in stage_program.h,
/// evaluated once per stage *structure* — matrix values are filled at
/// bind time.
GateSlot prep_gate(const Gate& g, int gate_index, const Layout& layout,
                   Index xor_before) {
  GateSlot p;
  p.gate = gate_index;
  bool any_nonlocal = false;
  for (Qubit q : g.qubits()) any_nonlocal |= !layout.is_local(q);

  if (!any_nonlocal) {
    p.kind = GateSlot::Case::Local;
    for (Qubit q : g.targets()) p.targets.push_back(layout.phys_of_logical[q]);
    for (Qubit q : g.controls())
      p.controls.push_back(layout.phys_of_logical[q]);
    return p;
  }

  if (g.fully_diagonal()) {
    const int k = g.num_qubits();
    for (int pos = 0; pos < k; ++pos) {
      const Qubit q = g.qubits()[pos];
      if (layout.is_local(q)) {
        p.local_pos.push_back(pos);
        p.targets.push_back(layout.phys_of_logical[q]);
      } else {
        const int sb = layout.phys_of_logical[q] - layout.num_local;
        if (test_bit(xor_before, sb))
          p.xor_adjust |= bit(static_cast<int>(p.decision_bits.size()));
        p.nonlocal_pos.push_back(pos);
        p.decision_bits.push_back(sb);
      }
    }
    p.kind = p.local_pos.empty() ? GateSlot::Case::DiagScale
                                 : GateSlot::Case::DiagRestrict;
    return p;
  }

  if (g.antidiagonal_1q() && !layout.is_local(g.qubits()[0])) {
    p.kind = GateSlot::Case::Antidiag;
    const int sb = layout.phys_of_logical[g.qubits()[0]] - layout.num_local;
    if (test_bit(xor_before, sb)) p.xor_adjust |= bit(0);
    p.decision_bits.push_back(sb);
    return p;
  }

  // Controlled gate with non-local (insular) controls.
  p.kind = GateSlot::Case::Ctrl;
  for (Qubit t : g.targets()) {
    ATLAS_CHECK(layout.is_local(t),
                "non-insular qubit " << t << " of gate " << g.to_string()
                                     << " is not local (staging bug)");
    p.targets.push_back(layout.phys_of_logical[t]);
  }
  for (Qubit c : g.controls()) {
    if (layout.is_local(c)) {
      p.controls.push_back(layout.phys_of_logical[c]);
    } else {
      const int sb = layout.phys_of_logical[c] - layout.num_local;
      if (test_bit(xor_before, sb))
        p.xor_adjust |= bit(static_cast<int>(p.decision_bits.size()));
      p.decision_bits.push_back(sb);
    }
  }
  return p;
}

KernelSkeleton compile_kernel_skeleton(std::vector<GateSlot> slots,
                                       kernelize::KernelType type) {
  KernelSkeleton kp;
  kp.type = type;
  for (const GateSlot& p : slots)
    kp.pattern_bits.insert(kp.pattern_bits.end(), p.decision_bits.begin(),
                           p.decision_bits.end());
  std::sort(kp.pattern_bits.begin(), kp.pattern_bits.end());
  kp.pattern_bits.erase(
      std::unique(kp.pattern_bits.begin(), kp.pattern_bits.end()),
      kp.pattern_bits.end());

  // Pattern position of each shard-index bit.
  const std::vector<int> pos_of_bit = inverse_index(kp.pattern_bits);

  const Index num_variants = Index{1} << kp.pattern_bits.size();
  kp.variants.reserve(num_variants);
  for (Index pattern = 0; pattern < num_variants; ++pattern) {
    VariantSkeleton v;
    for (int si = 0; si < static_cast<int>(slots.size()); ++si) {
      const GateSlot& p = slots[static_cast<std::size_t>(si)];
      const auto decide = [&](std::size_t i) -> bool {
        const int where =
            pos_of_bit[static_cast<std::size_t>(p.decision_bits[i])];
        return test_bit(pattern, where) ^
               test_bit(p.xor_adjust, static_cast<int>(i));
      };
      switch (p.kind) {
        case GateSlot::Case::Local:
          v.ops.push_back({si, 0});
          break;
        case GateSlot::Case::DiagScale: {
          Index fixed = 0;
          for (std::size_t i = 0; i < p.decision_bits.size(); ++i)
            if (decide(i)) fixed |= bit(p.nonlocal_pos[i]);
          v.scales.push_back({si, fixed});
          break;
        }
        case GateSlot::Case::DiagRestrict: {
          Index fixed = 0;
          for (std::size_t i = 0; i < p.decision_bits.size(); ++i)
            if (decide(i)) fixed |= bit(p.nonlocal_pos[i]);
          v.ops.push_back({si, fixed});
          break;
        }
        case GateSlot::Case::Antidiag:
          v.scales.push_back({si, decide(0) ? Index{1} : Index{0}});
          break;
        case GateSlot::Case::Ctrl: {
          bool fires = true;
          for (std::size_t i = 0; i < p.decision_bits.size(); ++i)
            fires &= decide(i);
          if (fires) v.ops.push_back({si, 0});
          break;
        }
      }
    }
    if (!v.ops.empty()) {
      // Matrix-free MatrixOps carry the bit structure the kernel-type
      // lowering needs (fused span / shm gather maps).
      std::vector<MatrixOp> shape;
      shape.reserve(v.ops.size());
      for (const auto& f : v.ops) {
        const GateSlot& p = slots[static_cast<std::size_t>(f.slot)];
        MatrixOp op;
        op.targets = p.targets;
        if (p.kind != GateSlot::Case::DiagRestrict) op.controls = p.controls;
        shape.push_back(std::move(op));
      }
      if (type == kernelize::KernelType::Fusion)
        v.fused_targets = bit_union(shape);
      else
        v.shm = compile_shm_skeleton(shape);
    }
    kp.variants.push_back(std::move(v));
  }
  kp.slots = std::move(slots);
  return kp;
}

/// Restriction of a fully diagonal gate matrix to its local qubits:
/// entry v of the result is full(fixed | spread(v, local_pos)) on the
/// diagonal, where `fixed` holds the known values of the non-local
/// qubits in the gate's index space.
Matrix restrict_diagonal(const Matrix& full, const std::vector<int>& local_pos,
                         Index fixed) {
  const int lk = static_cast<int>(local_pos.size());
  Matrix restricted(1 << lk, 1 << lk);
  for (Index v = 0; v < (Index{1} << lk); ++v) {
    const Index full_idx = fixed | spread_bits(v, local_pos);
    restricted(static_cast<int>(v), static_cast<int>(v)) =
        full(static_cast<int>(full_idx), static_cast<int>(full_idx));
  }
  return restricted;
}

/// Matrix values of one slot, resolved against the binding environment.
struct SlotMatrices {
  Matrix m;          ///< Local/Ctrl/Antidiag: target; Diag*: full matrix
  Amp scale_bit0{1.0, 0.0};  ///< Antidiag: u_{10}
  Amp scale_bit1{1.0, 0.0};  ///< Antidiag: u_{01}
};

}  // namespace

std::uint64_t layout_digest(const Layout& layout) {
  Fnv f;
  f.mix(static_cast<std::uint64_t>(layout.num_local));
  f.mix(layout.shard_xor);
  f.mix(layout.phys_of_logical.size());
  for (int p : layout.phys_of_logical) f.mix(static_cast<std::uint64_t>(p));
  return f.value();
}

std::uint64_t stage_kernel_binds() { return kernel_binds().value(); }

StageSkeleton compile_stage_skeleton(const Circuit& subcircuit,
                                     const kernelize::Kernelization& kernels,
                                     const Layout& layout) {
  StageSkeleton skel;
  skel.layout_digest = layout_digest(layout);
  // Pre-walk the shard_xor trajectory: anti-diagonal insular gates on
  // non-local qubits flip the shard-id mapping, and later gates must
  // observe the flipped mapping. The walk follows the kernel execution
  // order (topologically equivalent to the stage).
  Index cur = layout.shard_xor;
  skel.kernels.reserve(kernels.kernels.size());
  for (const auto& kernel : kernels.kernels) {
    std::vector<GateSlot> slots;
    slots.reserve(kernel.gate_indices.size());
    bool param_dependent = false;
    for (int gi : kernel.gate_indices) {
      const Gate& g = subcircuit.gate(gi);
      param_dependent |= g.is_parameterized();
      slots.push_back(prep_gate(g, gi, layout, cur));
      if (g.antidiagonal_1q() && !layout.is_local(g.qubits()[0]))
        cur ^= bit(layout.phys_of_logical[g.qubits()[0]] - layout.num_local);
    }
    skel.kernels.push_back(
        compile_kernel_skeleton(std::move(slots), kernel.type));
    skel.kernels.back().param_dependent = param_dependent;
  }
  skel.final_xor = cur;
  return skel;
}

StageProgram bind_stage_program(const Circuit& subcircuit,
                                const StageSkeleton& skeleton,
                                const ParamEnv& env,
                                const StageProgram* reuse) {
  ATLAS_CHECK(!reuse || reuse->kernels.size() == skeleton.kernels.size(),
              "bind reuse program was bound from a different skeleton ("
                  << (reuse ? reuse->kernels.size() : 0) << " kernels vs "
                  << skeleton.kernels.size() << ")");
  StageProgram prog;
  prog.final_xor = skeleton.final_xor;
  prog.kernels.reserve(skeleton.kernels.size());
  for (std::size_t ki = 0; ki < skeleton.kernels.size(); ++ki) {
    const KernelSkeleton& ks = skeleton.kernels[ki];
    // The bind-many delta, decided by value: canonical plans carry
    // every angle (constant or swept) as a slot symbol, so the useful
    // reuse test is whether this env resolves the kernel's parameters
    // to the same values the base program was bound under. When it
    // does — always for parameter-free kernels, and for every kernel
    // whose slots the sweep does not vary — the batch shares the first
    // binding's immutable KernelProgram instead of re-materializing
    // fusion products and shm tables per point.
    std::vector<double> bound;
    if (ks.param_dependent) {
      for (const GateSlot& slot : ks.slots)
        for (const Param& param : subcircuit.gate(slot.gate).params())
          bound.push_back(resolve_param(param, env));
    }
    if (reuse && (!ks.param_dependent ||
                  reuse->kernels[ki]->bound_values == bound)) {
      prog.kernels.push_back(reuse->kernels[ki]);
      continue;
    }
    kernel_binds().inc();
    KernelProgram kp;
    kp.pattern_bits = ks.pattern_bits;
    kp.bound_values = std::move(bound);

    // Materialize each slot's matrix exactly once per bind, shared by
    // every variant that reads it.
    std::vector<SlotMatrices> values(ks.slots.size());
    for (std::size_t si = 0; si < ks.slots.size(); ++si) {
      const GateSlot& p = ks.slots[si];
      const Gate& g = subcircuit.gate(p.gate);
      switch (p.kind) {
        case GateSlot::Case::Local:
        case GateSlot::Case::Ctrl:
          values[si].m = g.target_matrix_resolved(env);
          break;
        case GateSlot::Case::DiagScale:
        case GateSlot::Case::DiagRestrict:
          values[si].m = g.full_matrix_resolved(env);
          break;
        case GateSlot::Case::Antidiag: {
          const Matrix m = g.target_matrix_resolved(env);
          // After the flip the shard represents value (1 - old_bit);
          // its contents pick up u_{new,old}.
          values[si].scale_bit0 = m(1, 0);
          values[si].scale_bit1 = m(0, 1);
          break;
        }
      }
    }

    kp.variants.reserve(ks.variants.size());
    for (const VariantSkeleton& vs : ks.variants) {
      KernelVariant v;
      for (const auto& term : vs.scales) {
        const GateSlot& p = ks.slots[static_cast<std::size_t>(term.slot)];
        if (p.kind == GateSlot::Case::Antidiag) {
          v.scale *= term.sel ? values[static_cast<std::size_t>(term.slot)]
                                    .scale_bit1
                              : values[static_cast<std::size_t>(term.slot)]
                                    .scale_bit0;
        } else {
          const Amp entry = values[static_cast<std::size_t>(term.slot)].m(
              static_cast<int>(term.sel), static_cast<int>(term.sel));
          if (entry != Amp(1, 0)) v.scale *= entry;
        }
      }
      if (!vs.ops.empty()) {
        std::vector<MatrixOp> ops;
        ops.reserve(vs.ops.size());
        for (const auto& f : vs.ops) {
          const GateSlot& p = ks.slots[static_cast<std::size_t>(f.slot)];
          MatrixOp op;
          op.targets = p.targets;
          if (p.kind == GateSlot::Case::DiagRestrict) {
            op.m = restrict_diagonal(
                values[static_cast<std::size_t>(f.slot)].m, p.local_pos,
                f.fixed);
          } else {
            op.m = values[static_cast<std::size_t>(f.slot)].m;
            op.controls = p.controls;
          }
          ops.push_back(std::move(op));
        }
        if (ks.type == kernelize::KernelType::Fusion) {
          MatrixOp fused;
          fused.targets = vs.fused_targets;
          fused.m = fuse_matrix_ops(ops, fused.targets);
          v.fused = prepare_gate(fused);
          v.op = KernelVariant::Op::Fused;
        } else {
          std::vector<const Matrix*> matrices;
          matrices.reserve(ops.size());
          for (const MatrixOp& op : ops) matrices.push_back(&op.m);
          v.shm = bind_shm_program(vs.shm, matrices);
          v.op = KernelVariant::Op::Shm;
        }
      }
      kp.variants.push_back(std::move(v));
    }
    prog.kernels.push_back(std::make_shared<const KernelProgram>(std::move(kp)));
  }
  return prog;
}

std::shared_ptr<const StageSkeleton> StageSkeletonCache::get_or_build(
    const Layout& layout, const std::function<StageSkeleton()>& build) {
  static obs::Counter& hits = obs::counter(obs::names::kSkeletonCacheHits);
  static obs::Counter& misses =
      obs::counter(obs::names::kSkeletonCacheMisses);
  const std::uint64_t digest = layout_digest(layout);
  MutexLock lock(mu_);
  if (!cached_ || cached_->layout_digest != digest) {
    cached_ = std::make_shared<const StageSkeleton>(build());
    misses.inc();
  } else {
    hits.inc();
  }
  return cached_;
}

void run_stage_program(const StageProgram& prog, int shard, Amp* data,
                       Index size, std::vector<Amp>& scratch) {
  for (const std::shared_ptr<const KernelProgram>& kpp : prog.kernels) {
    const KernelProgram& kp = *kpp;
    Index pattern = 0;
    for (std::size_t i = 0; i < kp.pattern_bits.size(); ++i)
      if (test_bit(static_cast<Index>(shard), kp.pattern_bits[i]))
        pattern |= bit(static_cast<int>(i));
    const KernelVariant& v = kp.variants[pattern];
    if (v.scale != Amp(1, 0)) scale_buffer(data, size, v.scale);
    switch (v.op) {
      case KernelVariant::Op::None:
        break;
      case KernelVariant::Op::Fused:
        apply_prepared(data, size, v.fused);
        break;
      case KernelVariant::Op::Shm:
        run_shm_program(data, size, v.shm, scratch);
        break;
    }
  }
}

}  // namespace atlas::exec
