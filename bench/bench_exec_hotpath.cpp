// bench_exec_hotpath — the apply-kernel rewrite payoff, measured
// against a faithful reimplementation of the seed loop structure
// (insert-zero-bit index arithmetic per group, std::complex mat-vec,
// per-shard shm table rebuilds):
//
//   general : dense k-qubit apply, k = 1..5 — seed gather/mat-vec loop
//             vs the blocked lane-vectorized kernel;
//   fast    : diagonal and permutation gates — seed dense loop vs the
//             classified in-place fast paths;
//   shm     : 10-active-bit shared-memory kernels replayed across
//             shards — seed rebuild-per-invocation vs one compiled
//             ShmProgram: a CX-heavy Table-I-shaped kernel, then one
//             kernel per gate class (cx, cp/cz, ry, rz) reported in ns
//             per amplitude per gate;
//   remap   : the inter-stage all-to-all on the oneshot_table1 shape
//             (n=21, L=17, 16 shards; n=18, L=14 under --smoke), with
//             local bits 0-3, 4-7 or 10-13 swapped against the four
//             non-local ones — seed per-block index loop vs the tiled
//             bit-permutation walk, in ms, GB/s read+write and % of a
//             stream ceiling measured on the same pool;
//   e2e     : compile()+sweep() vs per-binding simulate() (bit-identity
//             gate on the whole pipeline).
//
// Every timed pair runs the same gates on copies of the same buffer and
// the results are compared with operator== (exact; -0.0 == +0.0), so
// the speedup is never bought with different arithmetic; the remap pairs
// also compare their CommStats. Full mode gates on >= 2x geomean
// speedup for the general k-qubit path (k>=2) and >= 3x for the
// bits 0-3 remap;
// --smoke shrinks buffers and skips the flaky-on-CI perf gate; --json
// PATH emits a BENCH_exec.json artifact for trend tracking.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/timer.h"
#include "exec/remap.h"
#include "sim/apply.h"
#include "sim/shm_executor.h"
#include "util.h"

namespace atlas::bench {
namespace {

// --- Seed loop structure, reproduced verbatim ---------------------------

/// The seed's specialized 1-qubit path: insert_zero_bit per iteration,
/// std::complex arithmetic.
void seed_apply_1q(Amp* data, Index size, int q, const Matrix& m) {
  const Amp u00 = m(0, 0), u01 = m(0, 1), u10 = m(1, 0), u11 = m(1, 1);
  const Index stride = bit(q);
  const Index groups = size >> 1;
  for (Index g = 0; g < groups; ++g) {
    const Index i0 = insert_zero_bit(g, q);
    const Index i1 = i0 | stride;
    const Amp a0 = data[i0], a1 = data[i1];
    data[i0] = u00 * a0 + u01 * a1;
    data[i1] = u10 * a0 + u11 * a1;
  }
}

/// The seed's general k-qubit path: per-group insert_zero_bits, dense
/// std::complex mat-vec through the Matrix accessor.
void seed_apply_matrix(Amp* data, Index size, const std::vector<int>& targets,
                       const Matrix& m) {
  const int k = static_cast<int>(targets.size());
  if (k == 1) {
    seed_apply_1q(data, size, targets[0], m);
    return;
  }
  std::vector<int> sorted = targets;
  std::sort(sorted.begin(), sorted.end());
  const Index dim = Index{1} << k;
  const Index groups = size >> k;
  std::vector<Index> offset(dim);
  for (Index v = 0; v < dim; ++v) offset[v] = spread_bits(v, targets);
  std::vector<Amp> in(dim), out(dim);
  for (Index g = 0; g < groups; ++g) {
    const Index base = insert_zero_bits(g, sorted);
    for (Index v = 0; v < dim; ++v) in[v] = data[base | offset[v]];
    for (Index r = 0; r < dim; ++r) {
      Amp acc{};
      for (Index c = 0; c < dim; ++c) {
        acc += m(static_cast<int>(r), static_cast<int>(c)) * in[c];
      }
      out[r] = acc;
    }
    for (Index v = 0; v < dim; ++v) data[base | offset[v]] = out[v];
  }
}

/// The seed's controlled path (apply_1q_1c + the general controlled
/// gather loop).
void seed_apply_controlled(Amp* data, Index size,
                           const std::vector<int>& targets,
                           const std::vector<int>& controls, const Matrix& m) {
  if (controls.empty()) {
    seed_apply_matrix(data, size, targets, m);
    return;
  }
  if (targets.size() == 1 && controls.size() == 1) {
    const Amp u00 = m(0, 0), u01 = m(0, 1), u10 = m(1, 0), u11 = m(1, 1);
    const int t = targets[0], c = controls[0];
    const Index tbit = bit(t), cbit = bit(c);
    const int lo = std::min(t, c), hi = std::max(t, c);
    const Index groups = size >> 2;
    for (Index g = 0; g < groups; ++g) {
      const Index base = insert_zero_bit(insert_zero_bit(g, lo), hi) | cbit;
      const Index i0 = base, i1 = base | tbit;
      const Amp a0 = data[i0], a1 = data[i1];
      data[i0] = u00 * a0 + u01 * a1;
      data[i1] = u10 * a0 + u11 * a1;
    }
    return;
  }
  const int k = static_cast<int>(targets.size());
  const int c = static_cast<int>(controls.size());
  std::vector<int> all = targets;
  all.insert(all.end(), controls.begin(), controls.end());
  std::sort(all.begin(), all.end());
  Index ctrl_mask = 0;
  for (int cq : controls) ctrl_mask |= bit(cq);
  const Index dim = Index{1} << k;
  const Index groups = size >> (k + c);
  std::vector<Index> offset(dim);
  for (Index v = 0; v < dim; ++v) offset[v] = spread_bits(v, targets);
  std::vector<Amp> in(dim), out(dim);
  for (Index g = 0; g < groups; ++g) {
    const Index base = insert_zero_bits(g, all) | ctrl_mask;
    for (Index v = 0; v < dim; ++v) in[v] = data[base | offset[v]];
    for (Index r = 0; r < dim; ++r) {
      Amp acc{};
      for (Index col = 0; col < dim; ++col)
        acc += m(static_cast<int>(r), static_cast<int>(col)) * in[col];
      out[r] = acc;
    }
    for (Index v = 0; v < dim; ++v) data[base | offset[v]] = out[v];
  }
}

/// The seed's shared-memory kernel: identity map + std::find scan +
/// offset table rebuilt on every invocation.
Index seed_run_shm(Amp* data, Index size, const std::vector<Gate>& gates,
                   const std::vector<int>& bit_of_qubit) {
  std::vector<int> active = {0, 1, 2};
  for (const Gate& g : gates)
    for (Qubit q : g.qubits()) active.push_back(bit_of_qubit[q]);
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  const int a = static_cast<int>(active.size());
  const Index batch = Index{1} << a;
  const Index num_batches = size >> a;
  std::vector<int> shm_bit_of_qubit(bit_of_qubit.size(), -1);
  for (std::size_t q = 0; q < bit_of_qubit.size(); ++q) {
    const auto it = std::find(active.begin(), active.end(), bit_of_qubit[q]);
    if (it != active.end())
      shm_bit_of_qubit[q] = static_cast<int>(it - active.begin());
  }
  std::vector<Index> offset(batch);
  for (Index v = 0; v < batch; ++v) offset[v] = spread_bits(v, active);
  std::vector<Amp> shm(batch);
  for (Index b = 0; b < num_batches; ++b) {
    const Index base = insert_zero_bits(b, active);
    for (Index v = 0; v < batch; ++v) shm[v] = data[base | offset[v]];
    for (const Gate& g : gates) {
      std::vector<int> targets, controls;
      for (Qubit q : g.targets()) targets.push_back(shm_bit_of_qubit[q]);
      for (Qubit q : g.controls()) controls.push_back(shm_bit_of_qubit[q]);
      seed_apply_controlled(shm.data(), batch, targets, controls,
                            g.target_matrix());
    }
    for (Index v = 0; v < batch; ++v) data[base | offset[v]] = shm[v];
  }
  return num_batches;
}

/// The seed's remap: a fresh zero-filled shard set, one n-bit index loop
/// and one memcpy per block of low bits the map fixes.
device::CommStats seed_remap(exec::DistState& state,
                             const exec::Layout& new_layout,
                             const device::Cluster& cluster) {
  const exec::Layout& old_layout = state.layout();
  const int n = state.num_qubits();
  const int L = new_layout.num_local;
  ATLAS_CHECK(old_layout.num_local == L,
              "remap cannot change the local qubit count");
  ATLAS_CHECK(new_layout.num_qubits() == n, "layout size mismatch");

  // Composite map: dst storage index -> src storage index.
  //   src = spread_bits(dst, bitmap) ^ xor_const
  // where bitmap[p] = old physical position of the logical qubit that
  // the new layout places at physical position p, and xor_const folds
  // both layouts' shard_xor corrections through the permutation.
  std::vector<int> bitmap(n);
  for (int p = 0; p < n; ++p)
    bitmap[p] = old_layout.phys_of_logical[new_layout.logical_of_phys[p]];
  Index xor_const = old_layout.shard_xor << L;
  {
    const Index a = new_layout.shard_xor << L;  // pre-permutation flips
    for (int p = 0; p < n; ++p)
      if (test_bit(a, p)) xor_const ^= bit(bitmap[p]);
  }

  device::CommStats stats;
  // Identity fast path: nothing moves.
  bool identity = xor_const == 0;
  for (int p = 0; p < n && identity; ++p) identity = bitmap[p] == p;
  if (identity) {
    state.layout() = new_layout;
    return stats;
  }

  // Block size: low bits fixed by the map move as contiguous runs.
  int block_bits = 0;
  while (block_bits < L && bitmap[block_bits] == block_bits &&
         !test_bit(xor_const, block_bits))
    ++block_bits;
  const Index block = Index{1} << block_bits;
  const Index shard_size = state.shard_size();
  const int num_shards = state.num_shards();

  std::vector<std::vector<Amp>> dst(
      num_shards, std::vector<Amp>(shard_size));
  const auto& src_shards = state.shards();

  // Per-shard byte accounting, merged after the parallel loop.
  std::vector<std::uint64_t> intra_gpu(num_shards, 0), intra_node(num_shards, 0),
      inter_node(num_shards, 0);

  cluster.pool().parallel_for(
      static_cast<std::size_t>(num_shards), [&](std::size_t s1) {
        const Index base = static_cast<Index>(s1) << L;
        for (Index o = 0; o < shard_size; o += block) {
          const Index d = base | o;
          Index src = xor_const;
          for (int p = block_bits; p < n; ++p)
            if (test_bit(d, p)) src ^= bit(bitmap[p]);
          src |= d & (block - 1);
          const int s0 = static_cast<int>(src >> L);
          std::memcpy(dst[s1].data() + o,
                      src_shards[s0].data() + (src & (shard_size - 1)),
                      block * sizeof(Amp));
          const std::uint64_t bytes = block * sizeof(Amp);
          if (s0 == static_cast<int>(s1)) {
            intra_gpu[s1] += bytes;
          } else if (cluster.node_of_shard(s0) ==
                     cluster.node_of_shard(static_cast<int>(s1))) {
            intra_node[s1] += bytes;
          } else {
            inter_node[s1] += bytes;
          }
        }
      });

  for (int s = 0; s < num_shards; ++s) {
    stats.intra_gpu_bytes += intra_gpu[s];
    stats.intra_node_bytes += intra_node[s];
    stats.inter_node_bytes += inter_node[s];
  }
  if (stats.intra_node_bytes + stats.inter_node_bytes > 0)
    stats.alltoall_rounds = 1;

  state.shards() = std::move(dst);
  state.layout() = new_layout;
  return stats;
}

// --- Harness ------------------------------------------------------------

std::vector<Amp> random_buffer(int n, std::uint64_t seed) {
  return StateVector::random(n, seed).amplitudes();
}

std::vector<int> random_positions(Rng& rng, int n, int k) {
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  for (int i = 0; i < k; ++i)
    std::swap(all[i], all[i + static_cast<int>(rng.index(n - i))]);
  all.resize(k);
  return all;
}

Matrix random_dense(Rng& rng, int dim) {
  Matrix m(dim, dim);
  for (int r = 0; r < dim; ++r)
    for (int c = 0; c < dim; ++c) m(r, c) = rng.amp();
  return m;
}

struct GateCase {
  std::vector<int> targets;
  Matrix m;
};

struct PairResult {
  double seed_seconds = 0;
  double new_seconds = 0;
  bool identical = false;
  double speedup() const { return seed_seconds / new_seconds; }
};

/// Times the same gate sequence through the seed loop and the prepared
/// kernels, on copies of the same buffer, and compares the results
/// exactly.
PairResult time_pair(const std::vector<Amp>& initial,
                     const std::vector<GateCase>& gates, int reps) {
  PairResult out;
  std::vector<Amp> a, b;
  {
    a = initial;
    Timer t;
    for (int r = 0; r < reps; ++r)
      for (const GateCase& g : gates)
        seed_apply_matrix(a.data(), static_cast<Index>(a.size()), g.targets,
                          g.m);
    out.seed_seconds = t.seconds();
  }
  {
    b = initial;
    std::vector<PreparedGate> prepared;
    prepared.reserve(gates.size());
    Timer t;
    for (const GateCase& g : gates)
      prepared.push_back(prepare_gate(MatrixOp{g.m, g.targets, {}}));
    for (int r = 0; r < reps; ++r)
      for (const PreparedGate& p : prepared)
        apply_prepared(b.data(), static_cast<Index>(b.size()), p);
    out.new_seconds = t.seconds();
  }
  out.identical = a == b;
  return out;
}

/// The remap rows' ceiling: best of 5 in-place read+write passes over
/// `bytes` bytes split across `pool`, in GB/s of bytes read plus bytes
/// written — the same accounting as the rows.
double stream_gbps(ThreadPool& pool, std::size_t bytes) {
  std::vector<double> a(bytes / sizeof(double), 1.0);
  const std::size_t chunks = pool.size();
  const std::size_t chunk = (a.size() + chunks - 1) / chunks;
  const auto pass = [&] {
    pool.parallel_for(chunks, [&](std::size_t c) {
      const std::size_t hi = std::min(a.size(), (c + 1) * chunk);
      for (std::size_t i = c * chunk; i < hi; ++i) a[i] = a[i] * 0.5 + 1.0;
    });
  };
  pass();
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    pass();
    best = std::max(best, 2.0 * static_cast<double>(bytes) / t.seconds());
  }
  return best / 1e9;
}

struct RemapRow {
  std::string moved;  // the local bits swapped against the non-local ones
  double seed_ms = 0;
  double new_ms = 0;
  double gbps = 0;  // exec::remap, bytes read + bytes written
  bool identical = false;
  double speedup() const { return seed_ms / new_ms; }
};

/// Swaps local bits [lo, lo + 4) of an identity-layout random state with
/// the four non-local bits, through the seed loop and exec::remap, each
/// timed best of `reps` on a fresh copy; compares shards and CommStats.
RemapRow time_remap(const exec::DistState& initial,
                    const device::Cluster& cluster, int lo, int reps) {
  const int n = initial.num_qubits();
  const int L = initial.layout().num_local;
  std::vector<Qubit> order(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) order[p] = p;
  for (int j = 0; j < n - L; ++j) std::swap(order[lo + j], order[L + j]);
  exec::Layout target = initial.layout();
  for (int p = 0; p < n; ++p) {
    target.logical_of_phys[p] = order[p];
    target.phys_of_logical[order[p]] = p;
  }
  RemapRow row;
  row.moved = std::to_string(lo) + "-" + std::to_string(lo + n - L - 1);
  const auto best_ms = [&](auto remap_fn, exec::DistState& out,
                           device::CommStats& stats) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      out = initial;
      Timer t;
      stats = remap_fn(out, target, cluster);
      best = std::min(best, t.seconds() * 1e3);
    }
    return best;
  };
  exec::DistState a, b;
  device::CommStats sa, sb;
  row.seed_ms = best_ms(seed_remap, a, sa);
  row.new_ms = best_ms(exec::remap, b, sb);
  row.identical = a.shards() == b.shards() && sa == sb;
  const double state_bytes = static_cast<double>(initial.num_shards()) *
                             static_cast<double>(initial.shard_size()) *
                             sizeof(Amp);
  row.gbps = 2.0 * state_bytes / (row.new_ms * 1e-3) / 1e9;
  return row;
}

int run(bool smoke, const char* json_path) {
  const int n = smoke ? 16 : 20;
  const int reps = smoke ? 2 : 4;
  const int gates_per_k = 4;

  print_header(
      "Execution hot path: seed loop structure vs compiled stage kernels",
      "per-shard gather loops with per-iteration index inserts",
      (std::string("2^") + std::to_string(n) +
       "-amp buffer, dense/diag/perm kernels + shm replay, 1 thread")
          .c_str());

  const std::vector<Amp> initial = random_buffer(n, 0xA71A5);
  Rng rng(12345);
  bool all_identical = true;

  // --- general dense k-qubit apply.
  std::printf("\n%-28s %12s %12s %9s %6s\n", "kernel", "seed [s]", "new [s]",
              "speedup", "exact");
  std::vector<double> general_speedups(6, 0.0);
  for (int k = 1; k <= 5; ++k) {
    std::vector<GateCase> gates;
    for (int i = 0; i < gates_per_k; ++i)
      gates.push_back(
          GateCase{random_positions(rng, n, k), random_dense(rng, 1 << k)});
    const PairResult r = time_pair(initial, gates, reps);
    general_speedups[static_cast<std::size_t>(k)] = r.speedup();
    all_identical &= r.identical;
    std::printf("%-28s %12.4f %12.4f %8.2fx %6s\n",
                (std::string("dense ") + std::to_string(k) + "q").c_str(),
                r.seed_seconds, r.new_seconds, r.speedup(),
                r.identical ? "yes" : "NO");
  }
  std::vector<double> tail(general_speedups.begin() + 2,
                           general_speedups.end());
  const double general_geomean = geomean(tail);

  // --- diagonal / permutation fast paths (seed ran these dense).
  const auto fast_case = [&](const char* name, int k, bool diag) {
    std::vector<GateCase> gates;
    for (int i = 0; i < gates_per_k; ++i) {
      Matrix m(1 << k, 1 << k);
      if (diag) {
        for (int v = 0; v < (1 << k); ++v) {
          const double t = rng.uniform(0, 6.28);
          m(v, v) = Amp(std::cos(t), std::sin(t));
        }
      } else {
        // A phased cyclic permutation.
        for (int v = 0; v < (1 << k); ++v) {
          const double t = rng.uniform(0, 6.28);
          m(v, (v + 1) % (1 << k)) = Amp(std::cos(t), std::sin(t));
        }
      }
      gates.push_back(GateCase{random_positions(rng, n, k), std::move(m)});
    }
    const PairResult r = time_pair(initial, gates, reps);
    all_identical &= r.identical;
    std::printf("%-28s %12.4f %12.4f %8.2fx %6s\n", name, r.seed_seconds,
                r.new_seconds, r.speedup(), r.identical ? "yes" : "NO");
    return r.speedup();
  };
  const double diag_speedup = fast_case("diagonal 2q", 2, true);
  const double perm_speedup = fast_case("permutation 3q", 3, false);

  // --- shm kernels: 10 active bits ({0,1,2} plus 7 random higher bits,
  // the paper's full shared-memory batch), replayed across 2^4 shards.
  // The headline kernel is dominated by controlled single-target gates
  // as the Table-I families are (su2random: 630 of 798 gates): four CX
  // ladders plus a layer of ry and rz. The seed replay rebuilds per
  // invocation; the new one replays one compiled ShmProgram.
  const int shards = 16;
  std::vector<int> act = {0, 1, 2};
  for (int b : random_positions(rng, n - 3, 7)) act.push_back(b + 3);
  std::vector<int> bit_of_qubit(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) bit_of_qubit[static_cast<std::size_t>(q)] = q;
  const auto ladder = [&](std::vector<Gate>& gates, auto make) {
    for (std::size_t i = 0; i + 1 < act.size(); ++i)
      gates.push_back(make(act[i], act[i + 1], i));
  };
  const auto cx = [](int a, int b, std::size_t) { return Gate::cx(a, b); };
  const auto layer = [&](std::vector<Gate>& gates, auto make) {
    for (std::size_t i = 0; i < act.size(); ++i)
      gates.push_back(make(act[i], 0.3 + 0.1 * static_cast<double>(i)));
  };
  const auto ry = [](int q, double t) { return Gate::ry(q, t); };
  const auto rz = [](int q, double t) { return Gate::rz(q, t); };
  // Replays `gates` as one shm kernel per shard through both paths.
  const auto shm_pair = [&](const std::vector<Gate>& gates) {
    std::vector<Amp> a = initial, b = initial;
    PairResult r;
    {
      Timer t;
      for (int s = 0; s < shards; ++s)
        seed_run_shm(a.data(), static_cast<Index>(a.size()), gates,
                     bit_of_qubit);
      r.seed_seconds = t.seconds();
    }
    {
      Timer t;
      std::vector<MatrixOp> ops;
      for (const Gate& g : gates) {
        MatrixOp op;
        op.m = g.target_matrix();
        for (Qubit q : g.targets()) op.targets.push_back(bit_of_qubit[q]);
        for (Qubit q : g.controls()) op.controls.push_back(bit_of_qubit[q]);
        ops.push_back(std::move(op));
      }
      const ShmProgram prog = compile_shm_program(ops);
      std::vector<Amp> scratch;
      for (int s = 0; s < shards; ++s)
        run_shm_program(b.data(), static_cast<Index>(b.size()), prog, scratch);
      r.new_seconds = t.seconds();
    }
    r.identical = a == b;
    all_identical &= r.identical;
    return r;
  };

  double shm_speedup;
  {
    std::vector<Gate> gates;
    for (int i = 0; i < 4; ++i) ladder(gates, cx);
    layer(gates, ry);
    layer(gates, rz);
    const PairResult r = shm_pair(gates);
    shm_speedup = r.speedup();
    std::printf("%-28s %12.4f %12.4f %8.2fx %6s\n", "shm cx-heavy x16 shards",
                r.seed_seconds, r.new_seconds, r.speedup(),
                r.identical ? "yes" : "NO");
  }

  // Per gate class: one shm kernel of that class alone, reported as
  // ns per amplitude per gate of the compiled replay (program compile
  // and gather/scatter included, amortized over 36-40 gates).
  struct ShmClass {
    const char* name;
    std::vector<Gate> gates;
  };
  std::vector<ShmClass> classes = {{"cx", {}}, {"cp_cz", {}}, {"ry", {}},
                                   {"rz", {}}};
  for (int i = 0; i < 4; ++i) {
    ladder(classes[0].gates, cx);
    ladder(classes[1].gates, [](int a, int b, std::size_t j) {
      return j % 2 == 0 ? Gate::cz(a, b) : Gate::cp(a, b, 0.7);
    });
    layer(classes[2].gates, ry);
    layer(classes[3].gates, rz);
  }
  std::vector<double> shm_ns(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const PairResult r = shm_pair(classes[c].gates);
    shm_ns[c] = r.new_seconds * 1e9 /
                (static_cast<double>(shards) *
                 static_cast<double>(initial.size()) *
                 static_cast<double>(classes[c].gates.size()));
    std::printf("%-28s %12.4f %12.4f %8.2fx %6s  %.3f ns/amp/gate\n",
                (std::string("shm ") + classes[c].name + " x16 shards").c_str(),
                r.seed_seconds, r.new_seconds, r.speedup(),
                r.identical ? "yes" : "NO", shm_ns[c]);
  }

  std::printf("\ngeneral k-qubit geomean (k=2..5): %5.2fx\n", general_geomean);

  // --- remap: the oneshot_table1 shape, 2 regional + 2 global bits, on
  // a pool of hardware_concurrency threads.
  std::vector<RemapRow> remaps;
  double ceiling_gbps = 0;
  {
    const int L = smoke ? 14 : 17;
    device::ClusterConfig cc;
    cc.local_qubits = L;
    cc.regional_qubits = 2;
    cc.global_qubits = 2;
    cc.gpus_per_node = 4;
    const device::Cluster cluster(cc);
    const int qubits = cc.total_qubits();
    const exec::DistState initial = exec::DistState::scatter(
        StateVector::random(qubits, 0xA71A5), exec::Layout::identity(qubits, L));
    // The ceiling's buffer is remap's working set: source + destination.
    ceiling_gbps = stream_gbps(cluster.pool(),
                               2 * (sizeof(Amp) << qubits));
    std::printf("\nremap n=%d L=%d, %d shards, %zu threads; stream ceiling "
                "%.1f GB/s\n",
                qubits, L, initial.num_shards(), cluster.pool().size(),
                ceiling_gbps);
    std::printf("%-28s %12s %12s %9s %8s %7s %6s\n", "remap bits moved",
                "seed [ms]", "new [ms]", "speedup", "GB/s", "stream", "exact");
    for (int lo : {0, 4, 10}) {
      const RemapRow r = time_remap(initial, cluster, lo, smoke ? 2 : 5);
      all_identical &= r.identical;
      std::printf("%-28s %12.2f %12.2f %8.2fx %8.2f %6.1f%% %6s\n",
                  ("remap bits " + r.moved).c_str(), r.seed_ms, r.new_ms,
                  r.speedup(), r.gbps, 100 * r.gbps / ceiling_gbps,
                  r.identical ? "yes" : "NO");
      remaps.push_back(r);
    }
  }

  // --- end-to-end bit-identity gate: compile()+sweep() == simulate().
  bool e2e_identical = true;
  {
    const int qubits = smoke ? 8 : 10;
    SessionConfig cfg{scaled_config(qubits - 2, 2, /*threads=*/1)};
    Circuit ansatz(qubits, "hotpath_ansatz");
    for (Qubit q = 0; q < qubits; ++q) ansatz.add(Gate::h(q));
    const Param theta = Param::symbol("theta");
    for (Qubit q = 0; q < qubits; ++q)
      ansatz.add(Gate::rzz(q, (q + 1) % qubits, theta));
    for (Qubit q = 0; q < qubits; ++q) ansatz.add(Gate::rx(q, theta * 0.5));
    const Session session(cfg);
    const CompiledCircuit compiled = session.compile(ansatz);
    for (int i = 0; i < 4; ++i) {
      const ParamBinding b{{"theta", 0.2 + 0.4 * i}};
      const auto via_run = session.run(compiled, b).state.gather();
      const auto direct = session.simulate(ansatz.bind(b)).state.gather();
      e2e_identical &= via_run.amplitudes() == direct.amplitudes();
    }
    std::printf("e2e compile()+run() vs simulate(): %s\n",
                e2e_identical ? "bit-identical" : "MISMATCH");
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exec_hotpath\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"buffer_bits\": %d,\n", n);
    std::fprintf(f, "  \"general_speedup\": {");
    for (int k = 1; k <= 5; ++k)
      std::fprintf(f, "%s\"k%d\": %.3f", k == 1 ? "" : ", ", k,
                   general_speedups[static_cast<std::size_t>(k)]);
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"general_geomean_k2_5\": %.3f,\n", general_geomean);
    std::fprintf(f, "  \"diag_speedup\": %.3f,\n", diag_speedup);
    std::fprintf(f, "  \"perm_speedup\": %.3f,\n", perm_speedup);
    std::fprintf(f, "  \"shm_speedup\": %.3f,\n", shm_speedup);
    std::fprintf(f, "  \"shm_ns_per_amp\": {");
    for (std::size_t c = 0; c < classes.size(); ++c)
      std::fprintf(f, "%s\"%s\": %.3f", c == 0 ? "" : ", ", classes[c].name,
                   shm_ns[c]);
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"stream_gbps\": %.3f,\n", ceiling_gbps);
    std::fprintf(f, "  \"remap\": [");
    for (std::size_t i = 0; i < remaps.size(); ++i) {
      const RemapRow& r = remaps[i];
      std::fprintf(f,
                   "%s\n    {\"moved\": \"%s\", \"seed_ms\": %.3f, "
                   "\"new_ms\": %.3f, \"speedup\": %.3f, \"gbps\": %.3f, "
                   "\"stream_pct\": %.1f, \"exact\": %s}",
                   i == 0 ? "" : ",", r.moved.c_str(), r.seed_ms, r.new_ms,
                   r.speedup(), r.gbps, 100 * r.gbps / ceiling_gbps,
                   r.identical ? "true" : "false");
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"bit_identical\": %s\n}\n",
                 (all_identical && e2e_identical) ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  // Correctness gates run in both modes; the perf gate only on a quiet
  // full-mode host (CI smoke workers are too noisy to gate on time).
  if (!all_identical || !e2e_identical) {
    std::printf("FAIL: fast paths are not bit-identical to the seed loop\n");
    return 1;
  }
  if (!smoke && general_geomean < 2.0) {
    std::printf("FAIL: general k-qubit apply speedup %.2fx < 2x target\n",
                general_geomean);
    return 1;
  }
  if (!smoke && remaps.front().speedup() < 3.0) {
    std::printf("FAIL: bits 0-3 remap speedup %.2fx < 3x target\n",
                remaps.front().speedup());
    return 1;
  }
  std::printf("check: all kernels bit-identical to seed loops — %s\n",
              smoke ? "SMOKE PASS" : "PASS");
  return 0;
}

}  // namespace
}  // namespace atlas::bench

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  return atlas::bench::run(smoke, json_path);
}
