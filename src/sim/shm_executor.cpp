#include "sim/shm_executor.h"

#include <algorithm>

#include "common/bits.h"
#include "common/error.h"
#include "sim/fusion.h"

namespace atlas {
namespace {

/// Sorted, deduplicated union of the ops' bit positions plus the three
/// always-active low bits.
std::vector<int> active_bits_of(const std::vector<MatrixOp>& ops) {
  std::vector<int> bits = bit_union(ops);
  bits.insert(bits.end(), {0, 1, 2});
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  ATLAS_CHECK(static_cast<int>(bits.size()) <= kShmQubits,
              "shared-memory kernel with " << bits.size()
                                           << " active qubits exceeds "
                                           << kShmQubits);
  return bits;
}

}  // namespace

std::vector<int> active_bits(const std::vector<Gate>& gates,
                             const std::vector<int>& bit_of_qubit) {
  std::vector<MatrixOp> ops;
  ops.reserve(gates.size());
  for (const Gate& g : gates) {
    MatrixOp op;
    for (Qubit q : g.qubits()) op.targets.push_back(bit_of_qubit[q]);
    ops.push_back(std::move(op));
  }
  return active_bits_of(ops);
}

ShmSkeleton compile_shm_skeleton(const std::vector<MatrixOp>& ops) {
  ShmSkeleton skel;
  skel.active = active_bits_of(ops);
  const int a = static_cast<int>(skel.active.size());
  const Index batch = Index{1} << a;

  // Scratch-space position of each buffer bit: a direct inverse-index
  // fill (O(bits)) instead of a per-qubit linear scan of `active`.
  const std::vector<int> pos_of_bit = inverse_index(skel.active);

  // Buffer offset of each scratch index (the gather/scatter map).
  skel.offset.resize(batch);
  for (Index v = 0; v < batch; ++v)
    skel.offset[v] = spread_bits(v, skel.active);

  skel.ops.reserve(ops.size());
  for (const MatrixOp& op : ops) {
    ShmSkeleton::OpSlots slots;
    slots.targets.reserve(op.targets.size());
    for (int b : op.targets)
      slots.targets.push_back(pos_of_bit[static_cast<std::size_t>(b)]);
    slots.controls.reserve(op.controls.size());
    for (int b : op.controls)
      slots.controls.push_back(pos_of_bit[static_cast<std::size_t>(b)]);
    skel.ops.push_back(std::move(slots));
  }
  return skel;
}

ShmProgram bind_shm_program(const ShmSkeleton& skeleton,
                            const std::vector<const Matrix*>& matrices) {
  ATLAS_CHECK(matrices.size() == skeleton.ops.size(),
              "shm bind: " << matrices.size() << " matrices for "
                           << skeleton.ops.size() << " ops");
  ShmProgram prog;
  prog.active = skeleton.active;
  prog.offset = skeleton.offset;
  prog.gates.reserve(skeleton.ops.size());
  for (std::size_t i = 0; i < skeleton.ops.size(); ++i) {
    MatrixOp remapped;
    remapped.m = *matrices[i];
    remapped.targets = skeleton.ops[i].targets;
    remapped.controls = skeleton.ops[i].controls;
    prog.gates.push_back(prepare_gate(remapped));
  }
  return prog;
}

ShmProgram compile_shm_program(const std::vector<MatrixOp>& ops) {
  std::vector<const Matrix*> matrices;
  matrices.reserve(ops.size());
  for (const MatrixOp& op : ops) matrices.push_back(&op.m);
  return bind_shm_program(compile_shm_skeleton(ops), matrices);
}

Index run_shm_program(Amp* data, Index size, const ShmProgram& prog,
                      std::vector<Amp>& scratch) {
  const int a = static_cast<int>(prog.active.size());
  const Index batch = Index{1} << a;
  const Index num_batches = size >> a;
  // The always-active low bits are the lowest scratch bits too, so the
  // gather/scatter map moves contiguous runs of 2^low amplitudes.
  int low = 0;
  while (low < a && prog.active[static_cast<std::size_t>(low)] == low) ++low;
  const Index run = Index{1} << low;
  scratch.resize(batch);
  Amp* shm = scratch.data();
  const Index* offset = prog.offset.data();
  for (Index b = 0; b < num_batches; ++b) {
    const Index base = insert_zero_bits(b, prog.active);
    for (Index v = 0; v < batch; v += run)
      std::copy_n(data + (base | offset[v]), run, shm + v);
    for (const PreparedGate& g : prog.gates) apply_prepared(shm, batch, g);
    for (Index v = 0; v < batch; v += run)
      std::copy_n(shm + v, run, data + (base | offset[v]));
  }
  return num_batches;
}

Index run_shared_memory_kernel(Amp* data, Index size,
                               const std::vector<Gate>& gates,
                               const std::vector<int>& bit_of_qubit) {
  std::vector<MatrixOp> ops;
  ops.reserve(gates.size());
  for (const Gate& g : gates) {
    MatrixOp op;
    op.m = g.target_matrix();
    for (Qubit q : g.targets()) op.targets.push_back(bit_of_qubit[q]);
    for (Qubit q : g.controls()) op.controls.push_back(bit_of_qubit[q]);
    ops.push_back(std::move(op));
  }
  std::vector<Amp> scratch;
  return run_shm_program(data, size, compile_shm_program(ops), scratch);
}

}  // namespace atlas
