// Distributed-execution tests: layout/remap correctness and end-to-end
// equivalence of the full Atlas pipeline (STAGE + KERNELIZE + EXECUTE)
// against the reference simulator, across circuit families, machine
// shapes, and offloading. Insular partial evaluation is covered case by
// case in test_stage_program.cpp.

#include <gtest/gtest.h>

#include <numeric>

#include "circuits/families.h"
#include "common/rng.h"
#include "core/session.h"
#include "exec/remap.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "sim/reference.h"

namespace atlas {
namespace {

constexpr double kTol = 1e-9;

exec::Layout layout_for(const std::vector<Qubit>& order, int num_local) {
  exec::Layout l;
  l.num_local = num_local;
  const int n = static_cast<int>(order.size());
  l.phys_of_logical.assign(n, -1);
  l.logical_of_phys.assign(n, -1);
  for (int p = 0; p < n; ++p) {
    l.logical_of_phys[p] = order[p];
    l.phys_of_logical[order[p]] = p;
  }
  return l;
}

TEST(DistState, ScatterGatherRoundTrip) {
  const StateVector sv = StateVector::random(8, 42);
  const auto layout = layout_for({3, 1, 7, 0, 2, 6, 4, 5}, 5);
  const exec::DistState st = exec::DistState::scatter(sv, layout);
  EXPECT_EQ(st.num_shards(), 8);
  EXPECT_LT(st.gather().max_abs_diff(sv), kTol);
}

TEST(DistState, ZeroStateHasUnitAmplitudeAtZero) {
  const auto layout = layout_for({2, 0, 1, 3}, 2);
  const exec::DistState st = exec::DistState::zero_state(layout);
  const StateVector sv = st.gather();
  EXPECT_EQ(sv[0], Amp(1, 0));
  EXPECT_NEAR(sv.norm_sq(), 1.0, kTol);
}

TEST(Remap, PreservesStateAcrossArbitraryPermutations) {
  const StateVector sv = StateVector::random(9, 7);
  device::ClusterConfig cc;
  cc.local_qubits = 5;
  cc.regional_qubits = 2;
  cc.global_qubits = 2;
  cc.gpus_per_node = 4;
  cc.num_threads = 2;
  device::Cluster cluster(cc);
  exec::DistState st =
      exec::DistState::scatter(sv, layout_for({0, 1, 2, 3, 4, 5, 6, 7, 8}, 5));
  // Chain several remaps through scrambled layouts, then return.
  const auto l1 = layout_for({8, 6, 4, 2, 0, 7, 5, 3, 1}, 5);
  const auto l2 = layout_for({1, 3, 5, 7, 8, 0, 2, 4, 6}, 5);
  const auto l0 = layout_for({0, 1, 2, 3, 4, 5, 6, 7, 8}, 5);
  auto stats = exec::remap(st, l1, cluster);
  EXPECT_GT(stats.inter_node_bytes + stats.intra_node_bytes, 0u);
  exec::remap(st, l2, cluster);
  exec::remap(st, l0, cluster);
  EXPECT_LT(st.gather().max_abs_diff(sv), kTol);
}

TEST(Remap, IdentityMovesNothing) {
  const StateVector sv = StateVector::random(7, 3);
  device::ClusterConfig cc;
  cc.local_qubits = 4;
  cc.regional_qubits = 2;
  cc.global_qubits = 1;
  cc.gpus_per_node = 4;
  device::Cluster cluster(cc);
  const auto l = layout_for({0, 1, 2, 3, 4, 5, 6}, 4);
  exec::DistState st = exec::DistState::scatter(sv, l);
  const auto stats = exec::remap(st, l, cluster);
  EXPECT_EQ(stats.intra_node_bytes, 0u);
  EXPECT_EQ(stats.inter_node_bytes, 0u);
  EXPECT_EQ(stats.alltoall_rounds, 0);
}

TEST(Remap, LocalOnlyShuffleStaysIntraGpu) {
  // Permuting only local positions never crosses shard boundaries.
  const StateVector sv = StateVector::random(7, 9);
  device::ClusterConfig cc;
  cc.local_qubits = 4;
  cc.regional_qubits = 2;
  cc.global_qubits = 1;
  cc.gpus_per_node = 4;
  device::Cluster cluster(cc);
  exec::DistState st =
      exec::DistState::scatter(sv, layout_for({0, 1, 2, 3, 4, 5, 6}, 4));
  const auto stats =
      exec::remap(st, layout_for({3, 2, 1, 0, 4, 5, 6}, 4), cluster);
  EXPECT_EQ(stats.intra_node_bytes, 0u);
  EXPECT_EQ(stats.inter_node_bytes, 0u);
  EXPECT_LT(st.gather().max_abs_diff(sv), kTol);
}

// --- Differential remap: exec::remap against scatter(gather) ---------

/// Which physical positions a random remap moves: the low two, swapped
/// with the top two (non-local when there are shards, so destination
/// shard bits feed source bits [0, 2)); none of the low two (the memcpy
/// run path); or any.
enum class Moved { kLow, kRun, kMixed };

/// perm[p] = the position of `before` that the target places at p.
std::vector<int> random_position_perm(int n, Moved moved, Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.index(static_cast<std::uint64_t>(i) + 1)]);
  const auto put = [&](int p, int value) {
    std::swap(perm[p], *std::find(perm.begin(), perm.end(), value));
  };
  for (int p = 0; p < std::min(2, n); ++p) {
    if (moved == Moved::kRun) put(p, p);
    if (moved == Moved::kLow && n - 1 - p > 1) {
      put(p, n - 1 - p);
      put(n - 1 - p, p);
    }
  }
  return perm;
}

exec::Layout permuted(const exec::Layout& before, const std::vector<int>& perm,
                      Index shard_xor) {
  std::vector<Qubit> order;
  for (int q : perm) order.push_back(before.logical_of_phys[q]);
  exec::Layout l = layout_for(order, before.num_local);
  l.shard_xor = shard_xor;
  return l;
}

/// Per-amplitude reference metering: every amplitude's bytes, by the
/// link between its shard under `from` and its shard under `to`; no
/// bytes at all when no amplitude changes place.
device::CommStats reference_metering(const exec::Layout& from,
                                     const exec::Layout& to,
                                     const device::Cluster& cluster) {
  const auto place = [](const exec::Layout& l, Index logical) {
    Index phys = 0;
    for (int q = 0; q < l.num_qubits(); ++q)
      if (test_bit(logical, q)) phys |= bit(l.phys_of_logical[q]);
    return phys ^ (l.shard_xor << l.num_local);
  };
  device::CommStats stats;
  bool moved = false;
  for (Index i = 0; i < (Index{1} << from.num_qubits()); ++i) {
    const Index a = place(from, i), b = place(to, i);
    moved |= a != b;
    const int s0 = static_cast<int>(a >> from.num_local);
    const int s1 = static_cast<int>(b >> to.num_local);
    if (s0 == s1) {
      stats.intra_gpu_bytes += sizeof(Amp);
    } else if (cluster.node_of_shard(s0) == cluster.node_of_shard(s1)) {
      stats.intra_node_bytes += sizeof(Amp);
    } else {
      stats.inter_node_bytes += sizeof(Amp);
    }
  }
  if (!moved) return {};
  if (stats.intra_node_bytes + stats.inter_node_bytes > 0)
    stats.alltoall_rounds = 1;
  return stats;
}

TEST(Remap, MatchesScatterOfGatherOnRandomLayouts) {
  // One and four pool threads: with four, destination shards are walked
  // in groups only while a task per thread remains. Node = shard >> 1.
  for (int threads : {1, 4}) {
    device::ClusterConfig cc;
    cc.local_qubits = 3;
    cc.regional_qubits = 1;
    cc.global_qubits = 2;
    cc.gpus_per_node = 2;
    cc.num_threads = threads;
    const device::Cluster cluster(cc);
    Rng rng(0x2E3A9 + static_cast<std::uint64_t>(threads));
    // L=16 with shards reaches the >= 1 MiB first-touch path.
    for (int L : {1, 2, 3, 5, 8, 16}) {
      for (int nonlocal : {0, L == 16 ? 2 : 3}) {
        const int n = L + nonlocal;
        const Index xor_range = Index{1} << nonlocal;
        for (Moved moved : {Moved::kLow, Moved::kRun, Moved::kMixed}) {
          for (int trial = 0; trial < (L == 16 ? 1 : 2); ++trial) {
            SCOPED_TRACE(testing::Message()
                         << "threads=" << threads << " L=" << L << " n=" << n
                         << " moved=" << static_cast<int>(moved)
                         << " trial=" << trial);
            exec::Layout before =
                layout_for(random_position_perm(n, Moved::kMixed, rng), L);
            before.shard_xor = rng.index(xor_range);
            const exec::Layout target =
                permuted(before, random_position_perm(n, moved, rng),
                         rng.index(xor_range));
            exec::DistState st = exec::DistState::scatter(
                StateVector::random(n, rng.index(1u << 30)), before);
            exec::DistState expect =
                exec::DistState::scatter(st.gather(), target);
            const device::CommStats stats = exec::remap(st, target, cluster);
            EXPECT_TRUE(st.shards() == expect.shards());
            EXPECT_EQ(st.layout().shard_xor, target.shard_xor);
            const device::CommStats ref =
                reference_metering(before, target, cluster);
            EXPECT_EQ(stats.intra_gpu_bytes, ref.intra_gpu_bytes);
            EXPECT_EQ(stats.intra_node_bytes, ref.intra_node_bytes);
            EXPECT_EQ(stats.inter_node_bytes, ref.inter_node_bytes);
            EXPECT_EQ(stats.alltoall_rounds, ref.alltoall_rounds);
          }
        }
      }
    }
  }
}

TEST(DistState, PooledZeroStateMatchesSerial) {
  // 16 KiB shards (zero-filled on the caller) and 1 MiB shards (one pool
  // task each); shard_xor = 2 puts amplitude 0 in shard 2.
  ThreadPool pool(4);
  for (int L : {10, 16}) {
    std::vector<Qubit> order(static_cast<std::size_t>(L + 2));
    for (int p = 0; p < L + 2; ++p) order[p] = (p + 5) % (L + 2);
    exec::Layout layout = layout_for(order, L);
    layout.shard_xor = 2;
    exec::DistState pooled = exec::DistState::zero_state(layout, &pool);
    exec::DistState serial = exec::DistState::zero_state(layout);
    EXPECT_TRUE(pooled.shards() == serial.shards()) << "L=" << L;
    EXPECT_EQ(serial.shard(2)[0], Amp(1, 0)) << "L=" << L;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the full pipeline must match the reference simulator.

SessionConfig small_config(int n, int local, int regional, int global,
                           int gpus_per_node) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = gpus_per_node;
  cfg.cluster.num_threads = 2;
  EXPECT_EQ(cfg.cluster.total_qubits(), n);
  return cfg;
}

class EndToEndFamilyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EndToEndFamilyTest, MatchesReference) {
  const int n = 12;
  const Circuit c = circuits::make_family(GetParam(), n);
  const Session session(small_config(n, 8, 2, 2, 4));
  const SimulationResult result = session.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, EndToEndFamilyTest,
                         ::testing::ValuesIn(circuits::family_names()));

TEST(EndToEnd, RandomCircuitsAcrossShapes) {
  struct Shape {
    int local, regional, global, gpus;
  };
  const Shape shapes[] = {
      {10, 0, 0, 1}, {8, 2, 0, 4}, {8, 0, 2, 1}, {7, 2, 1, 4}, {6, 2, 2, 4},
  };
  for (const auto& sh : shapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Circuit c = circuits::random_circuit(10, 60, seed);
      const Session session(
          small_config(10, sh.local, sh.regional, sh.global, sh.gpus));
      const SimulationResult result = session.simulate(c);
      const StateVector expected = simulate_reference(c);
      EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8)
          << "L=" << sh.local << " R=" << sh.regional << " G=" << sh.global
          << " seed=" << seed;
    }
  }
}

TEST(EndToEnd, OffloadingMatchesReference) {
  // 2^2 = 4 DRAM shards per node but only 1 physical GPU: shards swap
  // through the GPU (Section VII-C).
  const int n = 11;
  SessionConfig cfg = small_config(n, 7, 3, 1, 1);
  EXPECT_TRUE(cfg.cluster.offloading());
  const Circuit c = circuits::qft(n);
  const Session session(cfg);
  const SimulationResult result = session.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8);
  EXPECT_GT(result.report.totals.offload_bytes, 0u);
}

TEST(EndToEnd, ReportAccounting) {
  const int n = 11;
  const Circuit c = circuits::su2random(n);
  const Session session(small_config(n, 8, 2, 1, 4));
  const SimulationResult r = session.simulate(c);
  EXPECT_EQ(r.report.stages.size(), r.plan->stages.size());
  EXPECT_GT(r.report.wall_seconds, 0.0);
  EXPECT_GT(r.report.totals.kernel_bytes, 0u);
  // Multi-stage plans must have moved data between devices.
  if (r.plan->stages.size() > 1) {
    EXPECT_GT(r.report.totals.intra_node_bytes +
                  r.report.totals.inter_node_bytes,
              0u);
  }
  const double modeled = r.report.modeled_seconds(
      session.config().comm, session.cluster().config().num_nodes() * 4,
      session.cluster().config().num_nodes());
  EXPECT_GT(modeled, 0.0);
}

TEST(EndToEnd, RemapMetricsMatchReport) {
  // One exec.remap_us observation per stage, and exec.remap_bytes grows
  // by exactly the run's metered exchange.
  obs::Counter& bytes = obs::counter(obs::names::kExecRemapBytes);
  obs::Histogram& us = obs::histogram(obs::names::kExecRemapUs);
  const std::uint64_t bytes_before = bytes.value();
  const std::uint64_t count_before = us.count();
  const Session session(small_config(11, 8, 2, 1, 4));
  const SimulationResult r = session.simulate(circuits::su2random(11));
  const device::CommStats& t = r.report.totals;
  EXPECT_EQ(bytes.value() - bytes_before,
            t.intra_gpu_bytes + t.intra_node_bytes + t.inter_node_bytes);
  ASSERT_GT(r.report.stages.size(), 1u);
  EXPECT_EQ(us.count() - count_before, r.report.stages.size());
}

TEST(EndToEnd, PlanIsReusableAcrossRuns) {
  const int n = 10;
  const Circuit c = circuits::ising(n);
  const Session session(small_config(n, 7, 2, 1, 4));
  const exec::ExecutionPlan plan = *session.plan(c);
  exec::DistState s1 = exec::initial_state(plan, session.cluster());
  exec::DistState s2 = exec::initial_state(plan, session.cluster());
  session.execute(plan, s1);
  session.execute(plan, s2);
  EXPECT_LT(s1.gather().max_abs_diff(s2.gather()), kTol);
}

TEST(DistState, InitialStateMatchesSerialZeroState) {
  // 8 KiB and 1 MiB shards through a compiled plan's first layout.
  for (int L : {9, 16}) {
    const Session session(small_config(L + 2, L, 1, 1, 2));
    const exec::ExecutionPlan plan = *session.plan(circuits::ghz(L + 2));
    exec::DistState pooled = exec::initial_state(plan, session.cluster());
    exec::DistState serial = exec::DistState::zero_state(pooled.layout());
    EXPECT_TRUE(pooled.shards() == serial.shards()) << "L=" << L;
  }
}

TEST(EndToEnd, XGateOnGlobalQubitViaShardXor) {
  // A circuit that forces X on a qubit the stager keeps non-local:
  // only insular gates touch the high qubit.
  const int n = 10;
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.add(Gate::h(std::min(q, 7)));
  c.add(Gate::x(9));           // insular, can stay global
  c.add(Gate::cp(9, 0, 0.5));  // diagonal, reads q9 = 1 now
  const Session session(small_config(n, 8, 1, 1, 2));
  const SimulationResult result = session.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8);
}

TEST(EndToEnd, HhlSmallMatchesReference) {
  const Circuit c = circuits::hhl(5, 10);
  const Session session(small_config(10, 7, 2, 1, 4));
  const SimulationResult result = session.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-7);
}

}  // namespace
}  // namespace atlas
