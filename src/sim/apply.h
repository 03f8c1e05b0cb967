#pragma once

/// \file apply.h
/// Gate application to amplitude buffers. These functions are the
/// "device kernels" of the simulated GPU: they apply a (possibly
/// controlled) k-qubit unitary to every amplitude group of a buffer in
/// a data-parallel fashion, using exactly the strided index arithmetic
/// of the paper's Eq. (1) generalized to k qubits.
///
/// All functions take *bit positions within the buffer*; callers that
/// work with logical qubits map them through their layout first.
///
/// Hot paths are two-tier: prepare_gate() lowers a MatrixOp once —
/// resolving strides/offset tables and classifying the matrix into a
/// fast-path class (1q/2q dense, diagonal, permutation, general) — and
/// apply_prepared() replays it with stride-based nested loops whose
/// inner loop walks contiguous amplitudes. Classification uses *exact*
/// zero tests, so every fast path computes bit-identical amplitudes
/// (modulo the sign of zero) to the general dense loop. The one-shot
/// wrappers (apply_matrix & co.) prepare and apply in a single call.
///
/// One-target gates with at most one control (span <= 2: H, RY, RZ, X,
/// CX, CZ, CP, CR*, ...) take the *pair walk*: a three-level loop nest
/// over the op bits hi >= lo — blocks of 2^(hi+1), sub-blocks of
/// 2^(lo+1), and a contiguous run of 2^lo amplitude pairs with the
/// control bit set — so no group index is bit-inserted and no gather
/// tile is filled. Wider spans and multi-target gates keep the blocked
/// gather tile. The walk computes each element with the formula of the
/// path it replaces (including the tile's accumulation from 0 for the
/// controlled dense case), so it is bit-identical by construction.
///
/// The 1q kernels and scale_buffer hold one (re, im) amplitude in a
/// two-lane vector (GCC/Clang vector extensions, plain SSE2 on x86-64)
/// and multiply by u as re*x + im*swap(x) with re = {u_re, u_re} and
/// im = {-u_im, u_im}. That equals the scalar
/// {u_re*x_re - u_im*x_im, u_re*x_im + u_im*x_re} bit for bit, because
/// (-u)*x == -(u*x) and a + (-b) == a - b in IEEE arithmetic (and
/// + and * commute exactly). Amp is only 8-byte aligned, so the lanes
/// are loaded and stored through memcpy.

#include <vector>

#include "common/types.h"
#include "ir/gate.h"
#include "ir/matrix.h"
#include "sim/state_vector.h"

namespace atlas {

/// A (possibly controlled) unitary lowered to buffer bit positions: the
/// common currency of bind-time kernel compilation (fusion spans,
/// shared-memory programs, stage programs) — no Gate, no logical
/// qubits. Matrix row/column bit i corresponds to targets[i]; the op
/// acts only where every control bit is 1.
struct MatrixOp {
  Matrix m;
  std::vector<int> targets;
  std::vector<int> controls;
};

/// Fast-path class of a prepared kernel, decided once at preparation.
enum class ApplyPath {
  Dense1q,   ///< dense 2x2 on one target
  Diag1q,    ///< diagonal 2x2: two scalar multiplies per group
  Dense2q,   ///< dense 4x4 on two targets
  DiagK,     ///< diagonal 2^k: in-place scalar multiplies, no gather
  PermK,     ///< one nonzero per row/column: phased permute (pair walk
             ///< for one target and <= 1 control, else gather tile)
  DenseK,    ///< general 2^k x 2^k gather / mat-vec / scatter
};

/// A gate kernel lowered for repeated application: bit positions
/// resolved, offsets precomputed, matrix classified. Immutable after
/// prepare_gate(); apply_prepared() is const and thread-safe.
struct PreparedGate {
  ApplyPath path = ApplyPath::DenseK;
  int span = 0;                  ///< targets + controls bit count
  Index ctrl_mask = 0;           ///< OR of control bit positions
  std::vector<int> targets;      ///< matrix-order target bit positions
  std::vector<int> sorted_bits;  ///< targets + controls, ascending
  std::vector<double> m_re;      ///< Dense*: row-major / Diag*: diagonal
  std::vector<double> m_im;      ///< imaginary counterpart of m_re
  std::vector<int> perm;         ///< PermK: column of row r's nonzero
  std::vector<Amp> phase;        ///< PermK: value of row r's nonzero
  std::vector<Index> offset;     ///< buffer offset of matrix index v
};

/// Lowers `op` into a PreparedGate (positions must be distinct and the
/// matrix 2^|targets| square).
PreparedGate prepare_gate(const MatrixOp& op);

/// Applies a prepared kernel to the buffer (`size` a power of two,
/// every bit position < log2(size)).
void apply_prepared(Amp* data, Index size, const PreparedGate& g);

/// Applies the 2^k x 2^k matrix `m` to target bit positions `targets`
/// of the buffer (`size` must be a power of two, all positions <
/// log2(size), matrix row/col bit i corresponds to targets[i]).
void apply_matrix(Amp* data, Index size, const std::vector<int>& targets,
                  const Matrix& m);

/// As apply_matrix, but only on amplitude groups where every bit in
/// `controls` is 1.
void apply_controlled_matrix(Amp* data, Index size,
                             const std::vector<int>& targets,
                             const std::vector<int>& controls,
                             const Matrix& m);

/// Applies `gate` to the buffer with qubit q living at bit position
/// `bit_of_qubit[q]`. Entries for untouched qubits are ignored.
void apply_gate_mapped(Amp* data, Index size, const Gate& gate,
                       const std::vector<int>& bit_of_qubit);

/// Applies `gate` to a full state vector (identity layout: qubit q at
/// bit q — no per-call mapping is materialized).
void apply_gate(StateVector& sv, const Gate& gate);

/// Multiplies every amplitude by `factor` (used when a diagonal or
/// anti-diagonal gate acts on a non-local qubit whose value is fixed
/// for the shard).
void scale_buffer(Amp* data, Index size, Amp factor);

}  // namespace atlas
