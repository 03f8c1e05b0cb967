#pragma once

/// \file shm_executor.h
/// Shared-memory kernel execution (the paper's second kernel type,
/// mirroring HyQuas' SHM-GROUPING): amplitudes are loaded into a small
/// scratch buffer ("GPU shared memory") in micro-batches indexed by the
/// kernel's *active qubits*, every gate of the kernel is applied inside
/// the scratch buffer, and the batch is stored back. Per the paper
/// (footnote 3), the three least significant buffer bits are always
/// active so each load moves at least 2^3 contiguous amplitudes.
///
/// The kernel is compiled once into a ShmProgram — active-bit set,
/// gather/scatter offset table, and the member gates pre-lowered into
/// scratch-space PreparedGates — and replayed per shard / per stage
/// without rebuilding any of it (compile_shm_program / run_shm_program).
/// run_shared_memory_kernel is the one-shot wrapper.
///
/// Inside the scratch buffer every member gate is replayed through
/// apply_prepared(): one-target gates with at most one control — the
/// bulk of a kernel (CX/CZ/CP/CR* ladders, RY/RZ/H layers) — run on the
/// pair walk with two-lane complex arithmetic; diagonal k-qubit gates
/// run in place; wider controlled gates, permutations on several
/// targets and dense 2q/k-qubit gates run on the blocked gather tile
/// (see apply.h). The gather/scatter moves contiguous runs of the
/// always-active low bits.

#include <vector>

#include "common/types.h"
#include "ir/gate.h"
#include "sim/apply.h"

namespace atlas {

/// Number of amplitudes the emulated shared memory holds (2^10 complex
/// doubles = 16 KiB, matching an A100 SM's usable shared memory
/// budget per block at double precision).
inline constexpr int kShmQubits = 10;

/// A compiled shared-memory kernel: everything invariant across
/// micro-batches, shards, and bindings of the same localized gate list.
struct ShmProgram {
  std::vector<int> active;       ///< active buffer bit positions, ascending
  std::vector<Index> offset;     ///< gather/scatter map, size 2^|active|
  std::vector<PreparedGate> gates;  ///< lowered to scratch bit positions
};

/// The bit-structure half of a ShmProgram — everything except matrix
/// values: active bits, the gather/scatter offset table, and each op's
/// scratch-space target/control positions. Binding-independent, so
/// sweeps and trajectory batches compile it once and only re-fill the
/// matrices per point (bind_shm_program).
struct ShmSkeleton {
  std::vector<int> active;    ///< active buffer bit positions, ascending
  std::vector<Index> offset;  ///< gather/scatter map, size 2^|active|
  struct OpSlots {
    std::vector<int> targets, controls;  ///< scratch bit positions
  };
  std::vector<OpSlots> ops;
};

/// Compiles the bit-structure of `ops` (matrices ignored). Throws if
/// more than kShmQubits bits would be active.
ShmSkeleton compile_shm_skeleton(const std::vector<MatrixOp>& ops);

/// Fills a skeleton with matrix values (positionally aligned with the
/// ops the skeleton was compiled from) into a runnable ShmProgram.
ShmProgram bind_shm_program(const ShmSkeleton& skeleton,
                            const std::vector<const Matrix*>& matrices);

/// Compiles buffer-bit-space ops into a ShmProgram. Throws if more than
/// kShmQubits bits would be active.
ShmProgram compile_shm_program(const std::vector<MatrixOp>& ops);

/// Replays a compiled program over the buffer. `scratch` is caller-
/// provided storage reused across invocations (resized as needed).
/// \returns the number of micro-batches processed (checked by tests).
Index run_shm_program(Amp* data, Index size, const ShmProgram& prog,
                      std::vector<Amp>& scratch);

/// One-shot wrapper: compiles `gates` under `bit_of_qubit` and runs the
/// program once.
///
/// \param bit_of_qubit  maps each logical qubit to its buffer bit
///                      position; gates must only touch qubits whose
///                      bit position is < log2(size).
Index run_shared_memory_kernel(Amp* data, Index size,
                               const std::vector<Gate>& gates,
                               const std::vector<int>& bit_of_qubit);

/// The active bit positions a shared-memory kernel would use for
/// `gates` under the given layout: the union of the gates' bit
/// positions plus bits {0,1,2}, ascending. Throws if more than
/// kShmQubits bits would be active.
std::vector<int> active_bits(const std::vector<Gate>& gates,
                             const std::vector<int>& bit_of_qubit);

}  // namespace atlas
