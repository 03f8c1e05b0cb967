#include "sim/apply.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/bits.h"
#include "common/error.h"

namespace atlas {
namespace {

/// Lane count of the blocked kernels: groups are processed in batches
/// of up to kLanes so the per-lane arithmetic vectorizes (each lane is
/// an independent amplitude group — no reduction across lanes, so the
/// compiler may use SIMD without reassociating any floating-point sum,
/// keeping results bit-identical to the scalar loop).
constexpr Index kLanes = 32;

/// Exact-zero test: fast paths must preserve bit-identical arithmetic,
/// so classification never uses a tolerance (an entry of 1e-300 still
/// forces the dense path).
bool exactly_zero(const Amp& a) { return a.real() == 0.0 && a.imag() == 0.0; }

/// Group walk of the controlled diagonal 1q kernel with two or more
/// controls: enumerates the base index of every amplitude group, with
/// the bits below the lowest op bit walked by a contiguous inner loop.
template <class Body>
void for_each_base(Index size, int span, const std::vector<int>& sorted,
                   Index ctrl_mask, Body&& body) {
  const Index groups = size >> span;
  const int b0 = sorted.front();
  const Index inner = Index{1} << b0;
  const Index outer = groups >> b0;
  for (Index h = 0; h < outer; ++h) {
    const Index hb = insert_zero_bits(h << b0, sorted) | ctrl_mask;
    for (Index l = 0; l < inner; ++l) body(hb + l);
  }
}

/// One amplitude as a two-lane (re, im) vector. Loads and stores go
/// through memcpy: Amp is only 8-byte aligned.
typedef double Lanes __attribute__((vector_size(16)));

Lanes load(const Amp* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(Amp* p, Lanes v) {
  std::memcpy(static_cast<void*>(p), &v, sizeof v);
}

/// A complex factor u in lane form: u*x == re*x + im*swap(x) with
/// re = {u_re, u_re} and im = {-u_im, u_im}, i.e. lane-wise
/// {u_re*x_re + (-u_im)*x_im, u_re*x_im + u_im*x_re} — bit-identical to
/// the scalar {u_re*x_re - u_im*x_im, u_re*x_im + u_im*x_re}, because
/// (-u)*x == -(u*x) and a + (-b) == a - b in IEEE arithmetic.
struct Factor {
  Lanes re, im;
  Factor(double r, double i) : re{r, r}, im{-i, i} {}
  explicit Factor(Amp u) : Factor(u.real(), u.imag()) {}
  Lanes operator*(Lanes x) const {
    return re * x + im * __builtin_shufflevector(x, x, 1, 0);
  }
};

/// Pair walk of a one-target gate with at most one control (span <= 2):
/// a three-level loop nest over the op bits hi >= lo that hands
/// `run(p0, p1, n)` n contiguous amplitude pairs, p0 with the target bit
/// clear and p1 = p0 + 2^target, the control bit already set. No bit
/// insertion, no gather tile. An uncontrolled gate is the
/// hi == lo == target case, where the middle loop runs once.
template <class Run>
void for_each_pair_run(Amp* data, Index size, const PreparedGate& g,
                       Run&& run) {
  const Index lo = bit(g.sorted_bits.front());
  const Index hi = bit(g.sorted_bits.back());
  const Index stride = bit(g.targets[0]);
  if (lo == 1) {
    // Single-pair runs: a compile-time run length drops the inner loop.
    for (Index a = g.ctrl_mask; a < size; a += 2 * hi)
      for (Index b = a; b < a + hi; b += 2)
        run(data + b, data + b + stride, std::integral_constant<Index, 1>{});
    return;
  }
  for (Index a = g.ctrl_mask; a < size; a += 2 * hi)
    for (Index b = a; b < a + hi; b += 2 * lo)
      run(data + b, data + b + stride, lo);
}

/// Dense 1q with at most one control: the dominant kernel. The
/// controlled form keeps the blocked tile's accumulation from zero
/// (0 + u0*a0 + u1*a1), so a -0.0 product still sums to the same bits.
template <bool kFromZero>
void apply_dense_1q(Amp* data, Index size, const PreparedGate& g) {
  const Factor u00(g.m_re[0], g.m_im[0]), u01(g.m_re[1], g.m_im[1]);
  const Factor u10(g.m_re[2], g.m_im[2]), u11(g.m_re[3], g.m_im[3]);
  const Lanes zero{0.0, 0.0};
  for_each_pair_run(data, size, g, [&](Amp* p0, Amp* p1, auto n) {
    for (Index j = 0; j < n; ++j) {
      const Lanes a0 = load(p0 + j), a1 = load(p1 + j);
      Lanes r0 = u00 * a0, r1 = u10 * a0;
      if constexpr (kFromZero) {
        r0 = zero + r0;
        r1 = zero + r1;
      }
      store(p0 + j, r0 + u01 * a1);
      store(p1 + j, r1 + u11 * a1);
    }
  });
}

/// Diagonal 1q with at most one control: two in-place scalar multiplies
/// per pair, no pairing arithmetic.
void apply_diag_1q(Amp* data, Index size, const PreparedGate& g) {
  const Factor d0(g.m_re[0], g.m_im[0]), d1(g.m_re[1], g.m_im[1]);
  for_each_pair_run(data, size, g, [&](Amp* p0, Amp* p1, auto n) {
    for (Index j = 0; j < n; ++j) {
      store(p0 + j, d0 * load(p0 + j));
      store(p1 + j, d1 * load(p1 + j));
    }
  });
}

/// Phased swap of one target with at most one control (X, Y, CX, CY):
/// a non-diagonal 1-target permutation always maps row 0 from column 1
/// and row 1 from column 0.
void apply_perm_1q(Amp* data, Index size, const PreparedGate& g) {
  ATLAS_DCHECK(g.perm[0] == 1 && g.perm[1] == 0, "1q permutation");
  const Factor ph0(g.phase[0]), ph1(g.phase[1]);
  for_each_pair_run(data, size, g, [&](Amp* p0, Amp* p1, auto n) {
    for (Index j = 0; j < n; ++j) {
      const Lanes a0 = load(p0 + j), a1 = load(p1 + j);
      store(p0 + j, ph0 * a1);
      store(p1 + j, ph1 * a0);
    }
  });
}

/// Scratch for the blocked kernels, allocated once per apply call and
/// reused across every group block.
struct BlockScratch {
  std::vector<Index> base;
  std::vector<double> in_re, in_im, out_re, out_im;

  void size_for(Index lanes, Index dim, bool with_out) {
    base.resize(lanes);
    in_re.resize(dim * lanes);
    in_im.resize(dim * lanes);
    if (with_out) {
      out_re.resize(dim * lanes);
      out_im.resize(dim * lanes);
    }
  }
};

/// Fills scratch.base with the next `nb` group bases starting at group
/// index g0.
void fill_bases(BlockScratch& s, Index g0, Index nb,
                const std::vector<int>& sorted, Index ctrl_mask) {
  for (Index j = 0; j < nb; ++j)
    s.base[j] = insert_zero_bits(g0 + j, sorted) | ctrl_mask;
}

/// Blocked dense kernel: gathers a (dim x lanes) tile, multiplies by
/// the matrix with the reduction kept in strict column order (lane-wise
/// SIMD only), and scatters back. DIM == 0 selects the runtime-dim
/// variant.
template <Index DIM>
void apply_dense_blocked(Amp* data, Index size, const PreparedGate& g,
                         Index dyn_dim) {
  const Index dim = DIM == 0 ? dyn_dim : DIM;
  const Index groups = size >> g.span;
  const Index lanes = std::min<Index>(kLanes, groups);
  // Reused across calls: shared-memory programs replay small-batch
  // kernels at high call rates, where per-call allocation would
  // dominate.
  static thread_local BlockScratch s;
  s.size_for(lanes, dim, /*with_out=*/true);
  const double* mre = g.m_re.data();
  const double* mim = g.m_im.data();
  const Index* off = g.offset.data();
  for (Index g0 = 0; g0 < groups; g0 += lanes) {
    const Index nb = std::min(lanes, groups - g0);
    fill_bases(s, g0, nb, g.sorted_bits, g.ctrl_mask);
    for (Index v = 0; v < dim; ++v) {
      const Index o = off[v];
      double* ir = s.in_re.data() + v * lanes;
      double* ii = s.in_im.data() + v * lanes;
      for (Index j = 0; j < nb; ++j) {
        const Amp a = data[s.base[j] + o];
        ir[j] = a.real();
        ii[j] = a.imag();
      }
    }
    for (Index r = 0; r < dim; ++r) {
      double* orr = s.out_re.data() + r * lanes;
      double* ori = s.out_im.data() + r * lanes;
      for (Index j = 0; j < nb; ++j) {
        orr[j] = 0.0;
        ori[j] = 0.0;
      }
      for (Index c = 0; c < dim; ++c) {
        const double ur = mre[r * dim + c], ui = mim[r * dim + c];
        const double* ir = s.in_re.data() + c * lanes;
        const double* ii = s.in_im.data() + c * lanes;
        for (Index j = 0; j < nb; ++j) {
          orr[j] += ur * ir[j] - ui * ii[j];
          ori[j] += ur * ii[j] + ui * ir[j];
        }
      }
    }
    for (Index r = 0; r < dim; ++r) {
      const Index o = off[r];
      const double* orr = s.out_re.data() + r * lanes;
      const double* ori = s.out_im.data() + r * lanes;
      for (Index j = 0; j < nb; ++j)
        data[s.base[j] + o] = Amp(orr[j], ori[j]);
    }
  }
}

/// Diagonal k-qubit kernel: pure in-place scalar multiplies, no
/// gather/scatter tile. The loop nest is entry-major so the innermost
/// loop walks a contiguous amplitude run per diagonal entry.
void apply_diag_k(Amp* data, Index size, const PreparedGate& g) {
  const Index dim = Index{1} << g.targets.size();
  const Index groups = size >> g.span;
  const int b0 = g.sorted_bits.front();
  const Index inner = Index{1} << b0;
  const Index outer = groups >> b0;
  for (Index h = 0; h < outer; ++h) {
    const Index hb = insert_zero_bits(h << b0, g.sorted_bits) | g.ctrl_mask;
    for (Index v = 0; v < dim; ++v) {
      const double dr = g.m_re[v], di = g.m_im[v];
      double* p = reinterpret_cast<double*>(data + hb + g.offset[v]);
      for (Index l = 0; l < 2 * inner; l += 2) {
        const double ar = p[l], ai = p[l + 1];
        p[l] = ar * dr - ai * di;
        p[l + 1] = ar * di + ai * dr;
      }
    }
  }
}

/// Permutation kernel: gathers each group once, then writes row r from
/// column perm[r] scaled by the row's single nonzero entry.
void apply_perm_k(Amp* data, Index size, const PreparedGate& g) {
  const Index dim = Index{1} << g.targets.size();
  const Index groups = size >> g.span;
  const Index lanes = std::min<Index>(kLanes, groups);
  static thread_local BlockScratch s;
  s.size_for(lanes, dim, /*with_out=*/false);
  for (Index g0 = 0; g0 < groups; g0 += lanes) {
    const Index nb = std::min(lanes, groups - g0);
    fill_bases(s, g0, nb, g.sorted_bits, g.ctrl_mask);
    for (Index v = 0; v < dim; ++v) {
      const Index o = g.offset[v];
      double* ir = s.in_re.data() + v * lanes;
      double* ii = s.in_im.data() + v * lanes;
      for (Index j = 0; j < nb; ++j) {
        const Amp a = data[s.base[j] + o];
        ir[j] = a.real();
        ii[j] = a.imag();
      }
    }
    for (Index r = 0; r < dim; ++r) {
      const Index o = g.offset[r];
      const Index c = static_cast<Index>(g.perm[r]);
      const double pr = g.phase[r].real(), pi = g.phase[r].imag();
      const double* ir = s.in_re.data() + c * lanes;
      const double* ii = s.in_im.data() + c * lanes;
      for (Index j = 0; j < nb; ++j)
        data[s.base[j] + o] =
            Amp(pr * ir[j] - pi * ii[j], pr * ii[j] + pi * ir[j]);
    }
  }
}

}  // namespace

PreparedGate prepare_gate(const MatrixOp& op) {
  const int k = static_cast<int>(op.targets.size());
  const Index dim = Index{1} << k;
  ATLAS_DCHECK(op.m.rows() == static_cast<int>(dim) &&
                   op.m.cols() == static_cast<int>(dim),
               "matrix size mismatch");
  PreparedGate g;
  g.targets = op.targets;
  g.span = k + static_cast<int>(op.controls.size());
  g.sorted_bits = op.targets;
  g.sorted_bits.insert(g.sorted_bits.end(), op.controls.begin(),
                       op.controls.end());
  std::sort(g.sorted_bits.begin(), g.sorted_bits.end());
  for (int c : op.controls) g.ctrl_mask |= bit(c);

  // Classify: exact structure tests only (see file comment).
  bool diagonal = true;
  bool permutation = true;
  std::vector<int> perm(dim, -1);
  std::vector<bool> col_used(dim, false);
  for (Index r = 0; r < dim && permutation; ++r) {
    int nonzero = -1;
    for (Index c = 0; c < dim; ++c) {
      if (exactly_zero(op.m(static_cast<int>(r), static_cast<int>(c))))
        continue;
      if (c != r) diagonal = false;
      if (nonzero >= 0) {
        permutation = false;
        break;
      }
      nonzero = static_cast<int>(c);
    }
    if (nonzero < 0 || col_used[static_cast<std::size_t>(nonzero)]) {
      permutation = false;  // zero row / duplicated column: not a permutation
      break;
    }
    col_used[static_cast<std::size_t>(nonzero)] = true;
    perm[static_cast<std::size_t>(r)] = nonzero;
  }

  if (diagonal && permutation) {
    g.m_re.resize(dim);
    g.m_im.resize(dim);
    for (Index v = 0; v < dim; ++v) {
      const Amp d = op.m(static_cast<int>(v), static_cast<int>(v));
      g.m_re[v] = d.real();
      g.m_im[v] = d.imag();
    }
    if (k == 1) {
      g.path = ApplyPath::Diag1q;
      return g;
    }
    g.path = ApplyPath::DiagK;
    g.offset.resize(dim);
    for (Index v = 0; v < dim; ++v) g.offset[v] = spread_bits(v, g.targets);
    return g;
  }
  if (permutation) {
    g.path = ApplyPath::PermK;
    g.perm = std::move(perm);
    g.phase.resize(dim);
    for (Index r = 0; r < dim; ++r)
      g.phase[r] = op.m(static_cast<int>(r), g.perm[r]);
    g.offset.resize(dim);
    for (Index v = 0; v < dim; ++v) g.offset[v] = spread_bits(v, g.targets);
    return g;
  }

  g.m_re.resize(dim * dim);
  g.m_im.resize(dim * dim);
  for (Index r = 0; r < dim; ++r)
    for (Index c = 0; c < dim; ++c) {
      const Amp u = op.m(static_cast<int>(r), static_cast<int>(c));
      g.m_re[r * dim + c] = u.real();
      g.m_im[r * dim + c] = u.imag();
    }
  g.offset.resize(dim);
  for (Index v = 0; v < dim; ++v) g.offset[v] = spread_bits(v, g.targets);
  g.path = k == 1 ? ApplyPath::Dense1q
                  : (k == 2 ? ApplyPath::Dense2q : ApplyPath::DenseK);
  return g;
}

void apply_prepared(Amp* data, Index size, const PreparedGate& g) {
  switch (g.path) {
    case ApplyPath::Dense1q:
      if (g.span > 2) {
        apply_dense_blocked<2>(data, size, g, 2);
      } else if (g.ctrl_mask == 0) {
        apply_dense_1q<false>(data, size, g);
      } else {
        apply_dense_1q<true>(data, size, g);
      }
      return;
    case ApplyPath::Diag1q: {
      if (g.span <= 2) {
        apply_diag_1q(data, size, g);
        return;
      }
      // Diagonal 1q under two or more controls: walk the selected groups.
      const Factor d0(g.m_re[0], g.m_im[0]), d1(g.m_re[1], g.m_im[1]);
      const Index s0 = bit(g.targets[0]);
      for_each_base(size, g.span, g.sorted_bits, g.ctrl_mask, [&](Index b) {
        store(data + b, d0 * load(data + b));
        store(data + b + s0, d1 * load(data + b + s0));
      });
      return;
    }
    case ApplyPath::Dense2q:
      apply_dense_blocked<4>(data, size, g, 4);
      return;
    case ApplyPath::DiagK:
      apply_diag_k(data, size, g);
      return;
    case ApplyPath::PermK:
      if (g.targets.size() == 1 && g.span <= 2) {
        apply_perm_1q(data, size, g);
      } else {
        apply_perm_k(data, size, g);
      }
      return;
    case ApplyPath::DenseK:
      apply_dense_blocked<0>(data, size, g,
                             Index{1} << g.targets.size());
      return;
  }
}

void apply_matrix(Amp* data, Index size, const std::vector<int>& targets,
                  const Matrix& m) {
  apply_prepared(data, size, prepare_gate(MatrixOp{m, targets, {}}));
}

void apply_controlled_matrix(Amp* data, Index size,
                             const std::vector<int>& targets,
                             const std::vector<int>& controls,
                             const Matrix& m) {
  apply_prepared(data, size, prepare_gate(MatrixOp{m, targets, controls}));
}

void apply_gate_mapped(Amp* data, Index size, const Gate& gate,
                       const std::vector<int>& bit_of_qubit) {
  MatrixOp op;
  op.targets.reserve(gate.num_targets());
  for (Qubit q : gate.targets()) op.targets.push_back(bit_of_qubit[q]);
  op.controls.reserve(gate.num_controls());
  for (Qubit q : gate.controls()) op.controls.push_back(bit_of_qubit[q]);
  op.m = gate.target_matrix();
  apply_prepared(data, size, prepare_gate(op));
}

void apply_gate(StateVector& sv, const Gate& gate) {
  // Identity layout: qubit ids are bit positions — no per-call map.
  MatrixOp op;
  op.m = gate.target_matrix();
  const std::vector<Qubit> ts = gate.targets(), cs = gate.controls();
  op.targets.assign(ts.begin(), ts.end());
  op.controls.assign(cs.begin(), cs.end());
  apply_prepared(sv.data(), sv.size(), prepare_gate(op));
}

void scale_buffer(Amp* data, Index size, Amp factor) {
  const Factor f(factor);
  for (Index i = 0; i < size; ++i) store(data + i, f * load(data + i));
}

}  // namespace atlas
