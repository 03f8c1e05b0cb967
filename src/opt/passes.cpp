// The built-in optimizer passes. Every rewrite here is *exact* — the
// optimized circuit applies the same operator, global phase included —
// and symbolic-parameter-safe (see the contract in opt/pass.h). Each
// pass documents its soundness argument inline.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "ir/matrix.h"
#include "opt/pass.h"
#include "opt/rewrite.h"

namespace atlas::opt {
namespace {

Circuit rebuild(const Circuit& src, std::vector<Gate> gates) {
  Circuit out(src.num_qubits(), src.name());
  for (Gate& g : gates) out.add(std::move(g));
  return out;
}

/// Compacts (gates, alive) into a fresh gate list.
std::vector<Gate> compact(std::vector<Gate>& gates,
                          const std::vector<bool>& alive) {
  std::vector<Gate> out;
  out.reserve(gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i)
    if (alive[i]) out.push_back(std::move(gates[i]));
  return out;
}

// --- cancel-inverses ------------------------------------------------------
//
// Removes pairs (g_i, g_k), i < k, where g_k is syntactically the
// inverse of g_i and g_i commutes with every surviving gate strictly
// between them. Soundness: g_i slides right through the commuting
// interveners to adjacency with g_k, where g_i * g_k = I exactly
// (self-inverse library gates; rotation pairs whose parameter
// expressions sum to the syntactic constant 0, valid for any binding).
// Iterates to fixpoint so newly adjacent pairs cancel too.
class CancelInversesPass final : public Pass {
 public:
  std::string name() const override { return "cancel-inverses"; }

  bool run(Circuit& circuit, const PassContext&) const override {
    std::vector<Gate> gates = circuit.gates();
    bool changed_any = false;
    for (bool changed = true; changed;) {
      changed = false;
      std::vector<bool> alive(gates.size(), true);
      for (std::size_t i = 0; i < gates.size(); ++i) {
        if (!alive[i]) continue;
        for (std::size_t k = i + 1; k < gates.size(); ++k) {
          if (!alive[k]) continue;
          if (is_inverse_pair(gates[i], gates[k])) {
            alive[i] = alive[k] = false;
            changed = true;
            break;
          }
          if (!gates_commute(gates[i], gates[k])) break;
        }
      }
      if (changed) {
        gates = compact(gates, alive);
        changed_any = true;
      }
    }
    if (changed_any) circuit = rebuild(circuit, std::move(gates));
    return changed_any;
  }
};

// --- merge-rotations ------------------------------------------------------
//
// Folds same-kind rotation gates on the same qubit tuple (up to the
// kind's qubit symmetry) into one gate whose parameter is the affine
// sum — rz(a) rz(b) = rz(a+b) exactly, and likewise for the whole
// one-angle family, symbolic expressions included. The scan looks past
// gates that commute with the accumulating rotation (diagonal
// neighbors, disjoint supports, control-side crossings), so rotations
// merge across commuting diagonals, not just literal adjacency. A
// merged parameter that is syntactically the constant 0 deletes the
// gate (rx(0) = I exactly; controlled rotations at 0 are controlled-I).
class MergeRotationsPass final : public Pass {
 public:
  std::string name() const override { return "merge-rotations"; }

  bool run(Circuit& circuit, const PassContext&) const override {
    std::vector<Gate> gates = circuit.gates();
    std::vector<bool> alive(gates.size(), true);
    bool changed = false;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (!alive[i] || !mergeable_rotation(gates[i].kind())) continue;
      Param total = gates[i].param(0);
      bool merged = false;
      for (std::size_t k = i + 1; k < gates.size(); ++k) {
        if (!alive[k]) continue;
        if (gates[k].kind() == gates[i].kind() &&
            same_qubits_up_to_symmetry(gates[i].kind(), gates[i],
                                       gates[k])) {
          total += gates[k].param(0);
          alive[k] = false;
          merged = true;
          continue;  // keep scanning: the merged gate has the same
                     // support, so the commute frontier is unchanged
        }
        if (!gates_commute(gates[i], gates[k])) break;
      }
      if (!merged) continue;
      changed = true;
      if (total.is_constant() && total.constant_term() == 0.0)
        alive[i] = false;
      else
        gates[i] = gates[i].with_params({std::move(total)});
    }
    if (changed) circuit = rebuild(circuit, compact(gates, alive));
    return changed;
  }
};

// --- block2q --------------------------------------------------------------
//
// Resynthesizes CX-conjugated diagonals: CX(c,t) . D(t) . CX(c,t)
// where every gate on t between the pair is a diagonal single-qubit
// gate. The identity (exact, global phase included, valid for
// non-unitary diagonals too):
//
//   CX(c,t) diag(d0,d1)(t) CX(c,t) = diag(d0,d1,d1,d0) over |c,t>
//
// so constant middles fold into ONE two-qubit diagonal Unitary gate
// (fully insular), a symbolic rz(theta) becomes rzz(c,t,theta), and a
// symbolic p(theta) becomes p(c,theta) p(t,theta) cp(c,t,-2*theta)
// (phases: 01 -> theta, 10 -> theta, 11 -> 0; exact). Gates off t
// between the pair must commute with the CX (then they also commute
// with the middles, whose support is {t} alone, and with the rewritten
// diagonals) and stay in place. This turns the CX-RZ-CX Trotter blocks
// of Ising-style circuits into single rzz gates and ZZ-feature-map
// entanglers into insular diagonals — the paper's staging cost model
// rewards exactly that.
class Block2qPass final : public Pass {
 public:
  std::string name() const override { return "block2q"; }

  bool run(Circuit& circuit, const PassContext&) const override {
    std::vector<Gate> gates = circuit.gates();
    std::vector<bool> alive(gates.size(), true);
    // Replacement gates for a position (the opening CX's slot).
    std::vector<std::vector<Gate>> replacement(gates.size());
    bool changed = false;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (!alive[i] || gates[i].kind() != GateKind::CX) continue;
      const Qubit c = gates[i].control(0);
      const Qubit t = gates[i].target(0);
      std::vector<std::size_t> middles;
      std::size_t close = gates.size();
      for (std::size_t k = i + 1; k < gates.size(); ++k) {
        if (!alive[k]) continue;
        const Gate& g = gates[k];
        if (g.kind() == GateKind::CX && g.control(0) == c &&
            g.target(0) == t) {
          close = k;
          break;
        }
        if (g.acts_on(t)) {
          if (diag_1q_middle(g, t)) {
            middles.push_back(k);
            continue;
          }
          break;
        }
        if (!gates_commute(gates[i], g)) break;
      }
      if (close == gates.size() || middles.empty()) continue;
      alive[i] = alive[close] = false;
      std::vector<Gate>& out = replacement[i];
      // Fold runs of constant middles into one diagonal product;
      // CX D1 D2 CX = (CX D1 CX)(CX D2 CX), so each middle rewrites
      // independently and constant neighbors may share one gate.
      Amp d0(1, 0), d1(1, 0);
      bool pending = false;
      auto flush = [&] {
        if (!pending) return;
        Matrix m(4, 4);
        m(0, 0) = d0;
        m(1, 1) = d1;
        m(2, 2) = d1;
        m(3, 3) = d0;
        out.push_back(Gate::unitary({t, c}, std::move(m)));
        d0 = Amp(1, 0);
        d1 = Amp(1, 0);
        pending = false;
      };
      for (std::size_t k : middles) {
        const Gate& m = gates[k];
        alive[k] = false;
        if (!m.is_parameterized()) {
          const Matrix mm = m.target_matrix();
          d0 *= mm(0, 0);
          d1 *= mm(1, 1);
          pending = true;
        } else if (m.kind() == GateKind::RZ) {
          flush();
          out.push_back(Gate::rzz(c, t, m.param(0)));
        } else {  // symbolic P (the only other diagonal 1q kind)
          flush();
          out.push_back(Gate::p(c, m.param(0)));
          out.push_back(Gate::p(t, m.param(0)));
          out.push_back(Gate::cp(c, t, m.param(0) * -2.0));
        }
      }
      flush();
      changed = true;
    }
    if (!changed) return false;
    std::vector<Gate> rebuilt;
    rebuilt.reserve(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i) {
      for (Gate& g : replacement[i]) rebuilt.push_back(std::move(g));
      if (alive[i]) rebuilt.push_back(std::move(gates[i]));
    }
    circuit = rebuild(circuit, std::move(rebuilt));
    return true;
  }

 private:
  /// Rewritable middle: an uncontrolled diagonal single-qubit gate on
  /// t, either constant (folds into the diagonal product — non-unitary
  /// trajectory diagonals included, the identity is algebraic) or a
  /// symbolic rz/p.
  static bool diag_1q_middle(const Gate& g, Qubit t) {
    if (g.num_qubits() != 1 || g.num_controls() != 0 || g.qubits()[0] != t ||
        !g.fully_diagonal())
      return false;
    if (!g.is_parameterized()) return true;
    return g.kind() == GateKind::RZ || g.kind() == GateKind::P;
  }
};

// --- resynth-1q -----------------------------------------------------------
//
// Collapses maximal runs of >= min_run_length constant uncontrolled
// single-qubit gates on one qubit into a single gate carrying the
// exact matrix product (no phase dropped): the identity product
// disappears entirely, anything else becomes one Unitary gate whose
// diagonality/anti-diagonality — and thus insularity — the gate
// library re-derives from the matrix. Gates on other qubits between
// run members commute trivially (disjoint support), so the product
// lands at the first member's slot. Symbolic gates break runs: they
// have no numeric matrix and are left to the affine merge pass.
class Resynth1qPass final : public Pass {
 public:
  std::string name() const override { return "resynth-1q"; }

  bool run(Circuit& circuit, const PassContext& ctx) const override {
    const int min_run = std::max(2, ctx.options.min_run_length);
    std::vector<Gate> gates = circuit.gates();
    std::vector<bool> alive(gates.size(), true);
    std::vector<std::vector<std::size_t>> run(
        static_cast<std::size_t>(circuit.num_qubits()));
    bool changed = false;
    auto flush = [&](Qubit q) {
      auto& r = run[static_cast<std::size_t>(q)];
      if (static_cast<int>(r.size()) >= min_run) {
        Matrix product = Matrix::identity(2);
        for (std::size_t idx : r)
          product = gates[idx].target_matrix() * product;
        for (std::size_t idx : r) alive[idx] = false;
        if (Matrix::max_abs_diff(product, Matrix::identity(2)) >
            ctx.options.identity_tol) {
          // The product lands in the first member's slot; an exact
          // identity (phase included) just vanishes.
          gates[r.front()] = Gate::unitary({q}, std::move(product));
          alive[r.front()] = true;
        }
        changed = true;
      }
      r.clear();
    };
    for (std::size_t i = 0; i < gates.size(); ++i) {
      const Gate& g = gates[i];
      if (constant_1q_gate(g)) {
        run[static_cast<std::size_t>(g.qubits()[0])].push_back(i);
        continue;
      }
      for (Qubit q : g.qubits()) flush(q);
    }
    for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
    if (changed) circuit = rebuild(circuit, compact(gates, alive));
    return changed;
  }
};

// --- drop-identities ------------------------------------------------------
//
// Removes gates that are exactly the identity: zero-constant rotations
// (rx(0) = I bit-exactly; controlled rotations at 0 are controlled-I),
// u3(0,0,0), and uncontrolled Unitary gates within identity_tol of I.
// With up_to_global_phase set it additionally drops scalar gates
// e^{ia} * I (|scalar| = 1) — off by default to keep the engine's
// amplitude-level oracles exact.
class DropIdentitiesPass final : public Pass {
 public:
  std::string name() const override { return "drop-identities"; }

  bool run(Circuit& circuit, const PassContext& ctx) const override {
    std::vector<Gate> gates = circuit.gates();
    std::vector<bool> alive(gates.size(), true);
    bool changed = false;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      const Gate& g = gates[i];
      bool drop = is_identity_gate(g, ctx.options.identity_tol);
      if (!drop && ctx.options.up_to_global_phase &&
          g.kind() == GateKind::Unitary && g.num_controls() == 0) {
        const Matrix& m = g.target_matrix();
        const Amp s = m(0, 0);
        if (std::abs(std::abs(s) - 1.0) <= ctx.options.identity_tol) {
          Matrix scaled = Matrix::identity(m.rows());
          for (int r = 0; r < scaled.rows(); ++r) scaled(r, r) = s;
          drop = Matrix::max_abs_diff(m, scaled) <= ctx.options.identity_tol;
        }
      }
      if (drop) {
        alive[i] = false;
        changed = true;
      }
    }
    if (changed) circuit = rebuild(circuit, compact(gates, alive));
    return changed;
  }
};

// --- reorder --------------------------------------------------------------
//
// Commutation-aware packing: chooses another linear extension of the
// *commutation-relaxed* dependency order (edges only between gate
// pairs that share a qubit AND provably do not commute) that groups
// gates by overlapping non-insular qubit sets, then keeps it only if a
// greedy staging proxy says the stage count strictly drops. Soundness:
// any linear extension of that partial order is reachable by adjacent
// transpositions of commuting pairs, each of which preserves the
// operator product exactly. The relaxation is precisely what the
// stagers cannot do — their dependency DAG is share-a-qubit based.
class ReorderPass final : public Pass {
 public:
  std::string name() const override { return "reorder"; }

  bool run(Circuit& circuit, const PassContext& ctx) const override {
    const int n = circuit.num_gates();
    const int local = ctx.num_local_qubits;
    if (local <= 0 || n < 2 || n > ctx.options.reorder_max_gates ||
        circuit.num_qubits() > 63)
      return false;
    const std::vector<Gate>& gates = circuit.gates();

    std::vector<std::uint64_t> ni(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i)
      for (Qubit q : gates[static_cast<std::size_t>(i)].non_insular_qubits())
        ni[static_cast<std::size_t>(i)] |= std::uint64_t{1} << q;

    // Commutation-relaxed dependency edges (O(n^2), capped above).
    std::vector<std::vector<int>> succs(static_cast<std::size_t>(n));
    std::vector<int> pending(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      const Gate& a = gates[static_cast<std::size_t>(i)];
      for (int k = i + 1; k < n; ++k) {
        const Gate& b = gates[static_cast<std::size_t>(k)];
        bool shared = false;
        for (Qubit q : a.qubits())
          if (b.acts_on(q)) {
            shared = true;
            break;
          }
        if (shared && !gates_commute(a, b)) {
          succs[static_cast<std::size_t>(i)].push_back(k);
          ++pending[static_cast<std::size_t>(k)];
        }
      }
    }

    // Greedy list scheduling: emit insular gates freely, then gates
    // fitting the current non-insular window, then the smallest-growth
    // gate; open a new window when nothing fits. Ties break on the
    // original index, so the schedule is deterministic and stable.
    std::vector<int> ready;
    for (int i = 0; i < n; ++i)
      if (pending[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    std::uint64_t cur = 0;
    while (!ready.empty()) {
      int best = -1;
      int best_growth = std::numeric_limits<int>::max();
      for (int g : ready) {
        const std::uint64_t u = cur | ni[static_cast<std::size_t>(g)];
        const int width = std::popcount(u);
        if (width > local) continue;  // would overflow the window
        const int growth = width - std::popcount(cur);
        if (growth < best_growth || (growth == best_growth && g < best)) {
          best = g;
          best_growth = growth;
        }
      }
      if (best < 0) {
        // Nothing fits: open a fresh window with the smallest set.
        cur = 0;
        for (int g : ready) {
          const int width = std::popcount(ni[static_cast<std::size_t>(g)]);
          if (best < 0 || width < best_growth ||
              (width == best_growth && g < best)) {
            best = g;
            best_growth = width;
          }
        }
      }
      cur |= ni[static_cast<std::size_t>(best)];
      order.push_back(best);
      ready.erase(std::find(ready.begin(), ready.end(), best));
      for (int s : succs[static_cast<std::size_t>(best)])
        if (--pending[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }

    bool identity = true;
    for (int i = 0; i < n; ++i)
      if (order[static_cast<std::size_t>(i)] != i) {
        identity = false;
        break;
      }
    if (identity) return false;
    std::vector<std::uint64_t> cand_ni;
    cand_ni.reserve(static_cast<std::size_t>(n));
    for (int idx : order) cand_ni.push_back(ni[static_cast<std::size_t>(idx)]);
    if (proxy_stages(cand_ni, local) >= proxy_stages(ni, local))
      return false;  // keep the authored order unless strictly better
    std::vector<Gate> reordered;
    reordered.reserve(static_cast<std::size_t>(n));
    for (int idx : order) reordered.push_back(gates[static_cast<std::size_t>(idx)]);
    circuit = rebuild(circuit, std::move(reordered));
    return true;
  }

 private:
  /// Greedy contiguous-grouping stage estimate: how many maximal runs
  /// with non-insular union <= local does this order split into?
  static int proxy_stages(const std::vector<std::uint64_t>& ni, int local) {
    int stages = 0;
    std::uint64_t cur = 0;
    bool open = false;
    for (std::uint64_t m : ni) {
      if (m == 0) continue;
      const std::uint64_t u = cur | m;
      if (!open || std::popcount(u) > local) {
        ++stages;
        cur = m;
        open = true;
      } else {
        cur = u;
      }
    }
    return stages;
  }
};

}  // namespace

const Pass& find_pass(const std::string& name) {
  static const CancelInversesPass cancel_inverses;
  static const MergeRotationsPass merge_rotations;
  static const Block2qPass block2q;
  static const Resynth1qPass resynth_1q;
  static const DropIdentitiesPass drop_identities;
  static const ReorderPass reorder;
  static const Pass* const passes[] = {&cancel_inverses, &merge_rotations,
                                       &block2q,         &resynth_1q,
                                       &drop_identities, &reorder};
  std::ostringstream known;
  for (const Pass* pass : passes) {
    if (pass->name() == name) return *pass;
    known << (known.tellp() > 0 ? ", " : "") << pass->name();
  }
  throw Error("unknown optimizer pass '" + name + "'; known: " + known.str(),
              ErrorCode::not_found);
}

}  // namespace atlas::opt
