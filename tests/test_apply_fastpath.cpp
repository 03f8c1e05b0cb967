// Property tests for the apply fast paths: every specialized kernel
// (1q/2q dense, diagonal, permutation, blocked general-k, shm programs)
// must produce amplitudes exactly equal (operator==, which treats
// -0.0 == +0.0) to a naive textbook gather/mat-vec/scatter loop, across
// randomized gates, randomized states, and randomized bit layouts.
// Exactness is the contract that lets the executor pick fast paths
// freely without perturbing results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "ir/gate.h"
#include "sim/apply.h"
#include "sim/fusion.h"
#include "sim/reference.h"
#include "sim/shm_executor.h"
#include "sim/state_vector.h"

namespace atlas {
namespace {

/// The textbook loop the fast paths must reproduce bit-for-bit: gather
/// the 2^k amplitudes of each group, dense mat-vec in ascending column
/// order, scatter back.
void naive_apply(std::vector<Amp>& amps, const std::vector<int>& targets,
                 const std::vector<int>& controls, const Matrix& m) {
  const int k = static_cast<int>(targets.size());
  const int c = static_cast<int>(controls.size());
  std::vector<int> all = targets;
  all.insert(all.end(), controls.begin(), controls.end());
  std::sort(all.begin(), all.end());
  Index ctrl_mask = 0;
  for (int cq : controls) ctrl_mask |= bit(cq);
  const Index dim = Index{1} << k;
  const Index groups = static_cast<Index>(amps.size()) >> (k + c);
  std::vector<Index> offset(dim);
  for (Index v = 0; v < dim; ++v) offset[v] = spread_bits(v, targets);
  std::vector<Amp> in(dim), out(dim);
  for (Index g = 0; g < groups; ++g) {
    const Index base = insert_zero_bits(g, all) | ctrl_mask;
    for (Index v = 0; v < dim; ++v) in[v] = amps[base | offset[v]];
    for (Index r = 0; r < dim; ++r) {
      Amp acc{};
      for (Index col = 0; col < dim; ++col)
        acc += m(static_cast<int>(r), static_cast<int>(col)) * in[col];
      out[r] = acc;
    }
    for (Index v = 0; v < dim; ++v) amps[base | offset[v]] = out[v];
  }
}

std::vector<Amp> random_amps(int n, std::uint64_t seed) {
  return StateVector::random(n, seed).amplitudes();
}

/// Draws `count` distinct bit positions in [0, n).
std::vector<int> random_bits(Rng& rng, int n, int count) {
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  for (int i = 0; i < count; ++i)
    std::swap(all[i], all[i + static_cast<int>(rng.index(n - i))]);
  all.resize(count);
  return all;
}

/// A gate pool covering every fast-path class: dense/diagonal/
/// anti-diagonal 1q, controlled (dense, diagonal, phased swap), 2q
/// dense and diagonal, 3q permutations.
Gate random_gate(Rng& rng, const std::vector<int>& q) {
  switch (rng.index(22)) {
    case 0: return Gate::h(q[0]);
    case 1: return Gate::x(q[0]);
    case 2: return Gate::y(q[0]);
    case 3: return Gate::z(q[0]);
    case 4: return Gate::s(q[0]);
    case 5: return Gate::t(q[0]);
    case 6: return Gate::sx(q[0]);
    case 7: return Gate::rz(q[0], rng.uniform(0, 6.28));
    case 8: return Gate::u3(q[0], rng.uniform(0, 3.1), rng.uniform(0, 3.1),
                            rng.uniform(0, 3.1));
    case 9: return Gate::cx(q[0], q[1]);
    case 10: return Gate::cz(q[0], q[1]);
    case 11: return Gate::cp(q[0], q[1], rng.uniform(0, 6.28));
    case 12: return Gate::crx(q[0], q[1], rng.uniform(0, 6.28));
    case 13: return Gate::swap(q[0], q[1]);
    case 14: return Gate::rzz(q[0], q[1], rng.uniform(0, 6.28));
    case 15: return Gate::rxx(q[0], q[1], rng.uniform(0, 6.28));
    case 16: return Gate::cy(q[0], q[1]);
    case 17: return Gate::ch(q[0], q[1]);
    case 18: return Gate::cry(q[0], q[1], rng.uniform(0, 6.28));
    case 19: return Gate::crz(q[0], q[1], rng.uniform(0, 6.28));
    case 20: return Gate::ccx(q[0], q[1], q[2]);
    default: return Gate::ccz(q[0], q[1], q[2]);
  }
}

class FastPathTest : public ::testing::TestWithParam<int> {};

TEST_P(FastPathTest, RandomGatesRandomLayoutsMatchNaiveExactly) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 1299709);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 3 + static_cast<int>(rng.index(6));  // 3..8 bits
    std::vector<Amp> a = random_amps(n, seed * 131 + trial);
    std::vector<Amp> b = a;
    const Gate g = random_gate(rng, random_bits(rng, n, 3));

    // Randomized layout: logical qubit q lives at buffer bit
    // bit_of_qubit[q], a random permutation — the naive reference gets
    // the already-mapped positions, so any remapping bug diverges.
    const std::vector<int> bit_of_qubit = random_bits(rng, n, n);
    apply_gate_mapped(a.data(), static_cast<Index>(a.size()), g,
                      bit_of_qubit);

    std::vector<int> targets, controls;
    for (Qubit q : g.targets())
      targets.push_back(bit_of_qubit[static_cast<std::size_t>(q)]);
    for (Qubit q : g.controls())
      controls.push_back(bit_of_qubit[static_cast<std::size_t>(q)]);
    naive_apply(b, targets, controls, g.target_matrix());

    ASSERT_EQ(a, b) << "gate " << g.to_string() << " trial " << trial
                    << " seed " << seed;
  }
}

TEST_P(FastPathTest, PreparedGateMatchesOneShotExactly) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  for (int trial = 0; trial < 16; ++trial) {
    const int n = 4 + static_cast<int>(rng.index(5));  // 4..8 bits
    const int k = 1 + static_cast<int>(rng.index(3));  // 1..3 targets
    const int c = static_cast<int>(rng.index(2));      // 0..1 controls
    std::vector<int> bits = random_bits(rng, n, k + c);
    MatrixOp op;
    op.targets.assign(bits.begin(), bits.begin() + k);
    op.controls.assign(bits.begin() + k, bits.end());
    op.m = Matrix(1 << k, 1 << k);
    for (int r = 0; r < (1 << k); ++r)
      for (int col = 0; col < (1 << k); ++col) op.m(r, col) = rng.amp();

    std::vector<Amp> a = random_amps(n, seed * 977 + trial);
    std::vector<Amp> b = a;
    const PreparedGate prepared = prepare_gate(op);
    apply_prepared(a.data(), static_cast<Index>(a.size()), prepared);
    naive_apply(b, op.targets, op.controls, op.m);
    ASSERT_EQ(a, b) << "k=" << k << " c=" << c << " trial " << trial;
  }
}

TEST_P(FastPathTest, ShmProgramMatchesDirectApplicationExactly) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 65537 + 7);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 5 + static_cast<int>(rng.index(4));  // 5..8 bits
    // A random permutation layout for the first `n` logical qubits.
    std::vector<int> bit_of_qubit = random_bits(rng, n, n);
    std::vector<Gate> gates;
    const int num_gates = 2 + static_cast<int>(rng.index(5));
    for (int i = 0; i < num_gates; ++i)
      gates.push_back(random_gate(rng, random_bits(rng, n, 3)));

    std::vector<Amp> a = random_amps(n, seed * 31 + trial);
    std::vector<Amp> b = a;
    run_shared_memory_kernel(a.data(), static_cast<Index>(a.size()), gates,
                             bit_of_qubit);
    for (const Gate& g : gates)
      apply_gate_mapped(b.data(), static_cast<Index>(b.size()), g,
                        bit_of_qubit);
    ASSERT_EQ(a, b) << "trial " << trial << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathTest, ::testing::Range(1, 9));

/// Every controlled single-target gate on every ordered (control,
/// target) pair of an 8-bit buffer: the pair walk's loop levels
/// degenerate differently per pair (a low op bit of 0 makes every inner
/// run one amplitude pair, bits 1-2 make it 2 or 4, adjacent op bits run
/// the middle loop once).
TEST(FastPathExact, ControlledSingleTargetEveryPairMatchesNaiveExactly) {
  const int n = 8;
  const std::vector<Amp> initial = random_amps(n, 2024);
  const auto gates_on = [](int c, int t) {
    return std::vector<Gate>{Gate::cx(c, t),       Gate::cy(c, t),
                             Gate::cz(c, t),       Gate::cp(c, t, 0.9),
                             Gate::ch(c, t),       Gate::crx(c, t, 1.3),
                             Gate::cry(c, t, 2.1), Gate::crz(c, t, 0.4)};
  };
  for (int c = 0; c < n; ++c)
    for (int t = 0; t < n; ++t) {
      if (c == t) continue;
      for (const Gate& g : gates_on(c, t)) {
        StateVector sv(n);
        sv.amplitudes() = initial;
        apply_gate(sv, g);
        std::vector<Amp> ref = initial;
        naive_apply(ref, {g.targets()[0]}, {g.controls()[0]},
                    g.target_matrix());
        ASSERT_EQ(sv.amplitudes(), ref) << g.to_string();
      }
    }
}

/// The controlled dense 1q kernel accumulates from zero, as the
/// blocked tile and the naive loop do (0 + u0*a0 + u1*a1), so on
/// signed zeros it must match the naive loop bit for bit, not only
/// under operator==: -0.0 + -0.0 is -0.0, but 0 + -0.0 + -0.0 is +0.0.
TEST(FastPathExact, ControlledDenseAccumulatesFromZeroBitForBit) {
  const int n = 4;
  const std::vector<Amp> zeros(std::size_t{1} << n, Amp(-0.0, -0.0));
  for (const Gate& g : {Gate::ch(0, 2), Gate::ch(3, 1), Gate::cry(1, 0, 0.8)}) {
    StateVector sv(n);
    sv.amplitudes() = zeros;
    apply_gate(sv, g);
    std::vector<Amp> ref = zeros;
    naive_apply(ref, {g.targets()[0]}, {g.controls()[0]}, g.target_matrix());
    ASSERT_EQ(std::memcmp(sv.amplitudes().data(), ref.data(),
                          ref.size() * sizeof(Amp)),
              0)
        << g.to_string();
  }
}

/// A vqc-shaped shared-memory kernel: 10 active bits (the full shared
/// batch) under a random layout, layers of ry/rz around a CX ladder —
/// the gate mix that dominates the Table-I families' shm kernels.
TEST(FastPathExact, VqcShapedShmProgramMatchesGateByGateExactly) {
  Rng rng(77);
  const int n = 13;
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<int> bit_of_qubit = random_bits(rng, n, n);
    // The 10 qubits whose bits are active: 0, 1, 2 plus 7 others.
    std::vector<int> qubits;
    for (int q = 0; q < n; ++q)
      if (bit_of_qubit[static_cast<std::size_t>(q)] < 3) qubits.push_back(q);
    for (int q = 0; q < n && qubits.size() < 10; ++q)
      if (bit_of_qubit[static_cast<std::size_t>(q)] >= 3) qubits.push_back(q);
    std::vector<Gate> gates;
    for (int layer = 0; layer < 2; ++layer) {
      for (int q : qubits) gates.push_back(Gate::ry(q, rng.uniform(0, 6.28)));
      for (int q : qubits) gates.push_back(Gate::rz(q, rng.uniform(0, 6.28)));
      for (std::size_t i = 0; i + 1 < qubits.size(); ++i)
        gates.push_back(Gate::cx(qubits[i], qubits[i + 1]));
    }
    ASSERT_EQ(active_bits(gates, bit_of_qubit).size(), 10u);

    std::vector<Amp> a = random_amps(n, 500 + trial);
    std::vector<Amp> b = a;
    run_shared_memory_kernel(a.data(), static_cast<Index>(a.size()), gates,
                             bit_of_qubit);
    for (const Gate& g : gates)
      apply_gate_mapped(b.data(), static_cast<Index>(b.size()), g,
                        bit_of_qubit);
    ASSERT_EQ(a, b) << "trial " << trial;
  }
}

/// Amp is only 8-byte aligned, so the two-lane kernels must not assume
/// 16-byte vector alignment: every rewritten kernel runs on a buffer at
/// an address that is 8 mod 16 and must match the same kernel on an
/// ordinarily allocated buffer bit for bit.
TEST(FastPathExact, KernelsRunOnEightByteAlignedBuffers) {
  const int n = 6;
  const Index size = Index{1} << n;
  const std::vector<Amp> initial = random_amps(n, 31337);
  std::vector<double> raw(2 * size + 1);
  double* first = raw.data();
  if (reinterpret_cast<std::uintptr_t>(first) % 16 == 0) ++first;
  Amp* odd = reinterpret_cast<Amp*>(first);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(odd) % 16, 8u);

  const std::vector<Gate> gates = {
      Gate::u3(0, 0.3, 0.7, 1.1),  // dense 1q
      Gate::crx(1, 4, 0.5),        // dense 1q, one control
      Gate::rz(5, 0.8),            // diagonal 1q
      Gate::cp(2, 0, 1.7),         // diagonal 1q, one control
      Gate::ccz(0, 3, 5),          // diagonal 1q, two controls
      Gate::y(3),                  // phased swap
      Gate::cy(5, 2),              // phased swap, one control
  };
  std::vector<int> identity(n);
  for (int q = 0; q < n; ++q) identity[static_cast<std::size_t>(q)] = q;
  for (const Gate& g : gates) {
    std::memcpy(static_cast<void*>(odd), initial.data(), size * sizeof(Amp));
    StateVector sv(n);
    sv.amplitudes() = initial;
    apply_gate(sv, g);
    apply_gate_mapped(odd, size, g, identity);
    ASSERT_EQ(std::vector<Amp>(odd, odd + size), sv.amplitudes())
        << g.to_string();
  }
  std::memcpy(static_cast<void*>(odd), initial.data(), size * sizeof(Amp));
  std::vector<Amp> ref = initial;
  scale_buffer(odd, size, Amp(0.6, -0.8));
  scale_buffer(ref.data(), size, Amp(0.6, -0.8));
  EXPECT_EQ(std::vector<Amp>(odd, odd + size), ref);
}

TEST(FastPathClassification, PicksTheExpectedPaths) {
  const auto path_of = [](const Gate& g) {
    MatrixOp op;
    op.m = g.target_matrix();
    for (Qubit q : g.targets()) op.targets.push_back(q);
    for (Qubit q : g.controls()) op.controls.push_back(q);
    return prepare_gate(op).path;
  };
  EXPECT_EQ(path_of(Gate::h(0)), ApplyPath::Dense1q);
  EXPECT_EQ(path_of(Gate::z(0)), ApplyPath::Diag1q);
  EXPECT_EQ(path_of(Gate::rz(0, 0.4)), ApplyPath::Diag1q);
  EXPECT_EQ(path_of(Gate::x(0)), ApplyPath::PermK);
  EXPECT_EQ(path_of(Gate::cx(0, 1)), ApplyPath::PermK);  // X under control
  EXPECT_EQ(path_of(Gate::rzz(0, 1, 0.4)), ApplyPath::DiagK);
  EXPECT_EQ(path_of(Gate::swap(0, 1)), ApplyPath::PermK);
  EXPECT_EQ(path_of(Gate::rxx(0, 1, 0.4)), ApplyPath::Dense2q);
  // A generic dense 3-qubit unitary lands on the blocked general path.
  Rng rng(42);
  Matrix m(8, 8);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) m(r, c) = rng.amp();
  EXPECT_EQ(path_of(Gate::unitary({0, 1, 2}, m)), ApplyPath::DenseK);
}

TEST(FastPathClassification, ExactZeroTestNeverDropsTinyEntries) {
  // 1e-300 is numerically negligible but not zero: the classifier must
  // keep the dense path so results stay bit-identical to the naive
  // loop.
  Matrix m = Matrix::identity(2);
  m(0, 1) = Amp(1e-300, 0);
  MatrixOp op;
  op.m = m;
  op.targets = {0};
  EXPECT_EQ(prepare_gate(op).path, ApplyPath::Dense1q);

  std::vector<Amp> a = random_amps(4, 99);
  std::vector<Amp> b = a;
  apply_matrix(a.data(), static_cast<Index>(a.size()), {0}, m);
  naive_apply(b, {0}, {}, m);
  EXPECT_EQ(a, b);
}

TEST(FuseMatrixOps, MatchesGateFusionExactly) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Gate> gates;
    std::vector<MatrixOp> ops;
    const int num_gates = 2 + static_cast<int>(rng.index(4));
    for (int i = 0; i < num_gates; ++i) {
      const Gate g = random_gate(rng, random_bits(rng, 4, 3));
      gates.push_back(g);
      MatrixOp op;
      op.m = g.target_matrix();
      for (Qubit q : g.targets()) op.targets.push_back(q);
      for (Qubit q : g.controls()) op.controls.push_back(q);
      ops.push_back(std::move(op));
    }
    const Gate fused = fuse_to_gate(gates);
    std::vector<int> span;
    for (Qubit q : fused.targets()) span.push_back(q);
    const Matrix via_ops = fuse_matrix_ops(ops, span);
    EXPECT_EQ(Matrix::max_abs_diff(fused.target_matrix(), via_ops), 0.0)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace atlas
