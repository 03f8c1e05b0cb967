// Property-based tests: randomized sweeps asserting the system's core
// invariants — unitarity, pipeline-vs-reference equivalence under many
// machine shapes, remap round trips, staging/kernelization validity
// under parameter sweeps, and cost-model monotonicity.

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "circuits/families.h"
#include "core/session.h"
#include "exec/remap.h"
#include "kernelize/kernelizer.h"
#include "sim/reference.h"
#include "staging/snuqs.h"
#include "staging/stager.h"
#include "verify_matchers.h"

namespace atlas {
namespace {

// --------------------------------------------------------------------------
// Unitarity: every execution path preserves the norm.

class NormPreservationTest : public ::testing::TestWithParam<int> {};

TEST_P(NormPreservationTest, FullPipelinePreservesNorm) {
  const std::uint64_t seed = GetParam();
  const Circuit c = circuits::random_circuit(9, 50, seed);
  SessionConfig cfg;
  cfg.cluster.local_qubits = 6;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 4;
  const Session session(cfg);
  const auto result = session.simulate(c);
  EXPECT_NEAR(result.state.gather().norm_sq(), 1.0, 1e-9) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormPreservationTest,
                         ::testing::Range(1, 13));

// --------------------------------------------------------------------------
// Pipeline equivalence under randomized shapes.

class ShapeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ShapeSweepTest, PipelineMatchesReferenceUnderRandomShape) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919);
  const int n = 9 + static_cast<int>(rng.index(3));  // 9..11
  const int local = 5 + static_cast<int>(rng.index(n - 7));  // 5..n-3ish
  const int rest = n - local;
  const int regional = static_cast<int>(rng.index(rest + 1));
  const int global = rest - regional;
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node =
      1 << static_cast<int>(rng.index(regional + 1));  // may offload
  const Circuit c = circuits::random_circuit(n, 45, seed);
  const Session session(cfg);
  const auto result = session.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8)
      << "seed=" << seed << " n=" << n << " L=" << local << " R=" << regional
      << " G=" << global << " gpus=" << cfg.cluster.gpus_per_node;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeSweepTest, ::testing::Range(1, 21));

// --------------------------------------------------------------------------
// Remap: any chain of layout changes is lossless.

class RemapChainTest : public ::testing::TestWithParam<int> {};

TEST_P(RemapChainTest, RandomLayoutChainRoundTrips) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const int n = 9, L = 5;
  device::ClusterConfig cc;
  cc.local_qubits = L;
  cc.regional_qubits = 2;
  cc.global_qubits = 2;
  cc.gpus_per_node = 4;
  device::Cluster cluster(cc);

  auto random_layout = [&] {
    std::vector<Qubit> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng.engine());
    exec::Layout l;
    l.num_local = L;
    l.phys_of_logical.assign(n, -1);
    l.logical_of_phys.assign(n, -1);
    for (int p = 0; p < n; ++p) {
      l.logical_of_phys[p] = order[p];
      l.phys_of_logical[order[p]] = p;
    }
    l.shard_xor = rng.index(1 << (n - L));
    return l;
  };

  const StateVector sv = StateVector::random(n, seed + 100);
  const exec::Layout start = random_layout();
  exec::DistState st = exec::DistState::scatter(sv, start);
  for (int hop = 0; hop < 4; ++hop) exec::remap(st, random_layout(), cluster);
  exec::remap(st, start, cluster);
  EXPECT_LT(st.gather().max_abs_diff(sv), 1e-12) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemapChainTest, ::testing::Range(1, 11));

TEST(RemapProperty, GatherInvariantUnderRemap) {
  // gather() must be independent of the layout the state sits in.
  Rng rng(5);
  const StateVector sv = StateVector::random(8, 11);
  device::ClusterConfig cc;
  cc.local_qubits = 5;
  cc.regional_qubits = 2;
  cc.global_qubits = 1;
  cc.gpus_per_node = 4;
  device::Cluster cluster(cc);
  exec::Layout id = exec::Layout::identity(8, 5);
  exec::DistState st = exec::DistState::scatter(sv, id);
  std::vector<Qubit> order = {7, 5, 3, 1, 0, 2, 4, 6};
  exec::Layout l2;
  l2.num_local = 5;
  l2.phys_of_logical.assign(8, -1);
  l2.logical_of_phys.assign(8, -1);
  for (int p = 0; p < 8; ++p) {
    l2.logical_of_phys[p] = order[p];
    l2.phys_of_logical[order[p]] = p;
  }
  exec::remap(st, l2, cluster);
  EXPECT_LT(st.gather().max_abs_diff(sv), 1e-12);
}

// --------------------------------------------------------------------------
// Staging: validity and stage-count sanity across the local-size sweep
// (the Fig. 9 axis) for every family.

class StagingSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StagingSweepTest, ValidAndMonotoneAcrossLocalSizes) {
  const Circuit c = circuits::make_family(GetParam(), 13);
  std::size_t prev_stages = 1000;
  for (int local = 5; local <= 13; ++local) {
    staging::MachineShape shape;
    shape.num_local = local;
    shape.num_global = std::min(2, 13 - local);
    shape.num_regional = 13 - local - shape.num_global;
    const auto staged = staging::stage_with_bnb(c, shape);
    EXPECT_TRUE(clean(verify::verify_staged(c, staged, shape)));
    // More local qubits never force more stages (the ILP's optimality
    // property the paper contrasts with SnuQS's non-monotonicity).
    EXPECT_LE(staged.stages.size(), prev_stages)
        << GetParam() << " at L=" << local;
    prev_stages = staged.stages.size();
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, StagingSweepTest,
                         ::testing::ValuesIn(circuits::family_names()));

// --------------------------------------------------------------------------
// Kernelization: validity across pruning thresholds and random
// circuits; DP never loses to greedy or ordered.

class KernelizePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelizePropertyTest, DpValidAndAtMostBaselinesOnRandom) {
  const std::uint64_t seed = GetParam();
  const Circuit c = circuits::random_circuit(8, 60, seed * 131);
  const auto model = kernelize::CostModel::default_model();
  for (int t : {8, 64, 500}) {
    kernelize::DpOptions opt;
    opt.prune_threshold = t;
    const auto dp = kernelize::kernelize_dp(c, model, opt);
    EXPECT_TRUE(clean(verify::verify_kernelization(c, dp, model)));
    if (t == 500) {
      EXPECT_LE(dp.total_cost,
                kernelize::kernelize_greedy(c, model).total_cost + 1e-9)
          << "seed " << seed;
      EXPECT_LE(dp.total_cost,
                kernelize::kernelize_ordered(c, model).total_cost + 1e-9)
          << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelizePropertyTest,
                         ::testing::Range(1, 11));

// --------------------------------------------------------------------------
// Every STAGE engine × every KERNELIZE engine, each plan assembled by
// hand from the engine functions (as baselines::plan_baseline does) and
// executed by the Session on in-place and offloading shapes.

TEST(Property, EveryEnginePairMatchesReference) {
  using StageFn = std::function<staging::StagedCircuit(
      const Circuit&, const staging::MachineShape&)>;
  using KernelizeFn = std::function<kernelize::Kernelization(
      const Circuit&, const kernelize::CostModel&)>;
  const std::vector<std::pair<const char*, StageFn>> stagers = {
      {"ilp",
       [](const Circuit& c, const staging::MachineShape& shape) {
         auto staged = staging::stage_with_ilp(c, shape);
         if (!staged) throw Error("ILP exhausted its node budget");
         return *std::move(staged);
       }},
      {"bnb",
       [](const Circuit& c, const staging::MachineShape& shape) {
         return staging::stage_with_bnb(c, shape);
       }},
      {"snuqs", staging::stage_with_snuqs}};
  const std::vector<std::pair<const char*, KernelizeFn>> kernelizers = {
      {"dp",
       [](const Circuit& c, const kernelize::CostModel& model) {
         return kernelize::kernelize_dp(c, model);
       }},
      {"ordered", kernelize::kernelize_ordered},
      {"greedy", [](const Circuit& c, const kernelize::CostModel& model) {
         return kernelize::kernelize_greedy(c, model);
       }}};

  // {qubits, local, regional, global, gpus_per_node, circuit seed}:
  // 16-gate random circuits that need two stages and stay small enough
  // for the ILP. The last shape has fewer GPUs than regional shards, so
  // it runs the device runner.
  const int cases[][6] = {
      {6, 3, 2, 1, 4, 3}, {7, 4, 2, 1, 4, 6}, {8, 4, 2, 2, 1, 3}};
  for (const auto& [n, local, regional, global, gpus, seed] : cases) {
    SessionConfig cfg;
    cfg.cluster.local_qubits = local;
    cfg.cluster.regional_qubits = regional;
    cfg.cluster.global_qubits = global;
    cfg.cluster.gpus_per_node = gpus;
    cfg.cluster.num_threads = 2;
    const Session session(cfg);
    staging::MachineShape shape;
    shape.num_local = local;
    shape.num_regional = regional;
    shape.num_global = global;
    shape.cost_factor = cfg.stage_cost_factor;

    const Circuit c = circuits::random_circuit(n, 16, seed);
    const StateVector expected = simulate_reference(c);
    for (const auto& [stager_name, stage] : stagers) {
      const staging::StagedCircuit staged = stage(c, shape);
      EXPECT_TRUE(clean(verify::verify_staged(c, staged, shape)));
      EXPECT_GE(staged.stages.size(), 2u) << stager_name << ", n=" << n;
      for (const auto& [kernelizer_name, kernelize_fn] : kernelizers) {
        SCOPED_TRACE(::testing::Message()
                     << stager_name << " x " << kernelizer_name << ", n="
                     << n << ", seed " << seed);
        exec::ExecutionPlan plan;
        for (const auto& stage_info : staged.stages) {
          exec::PlannedStage ps;
          ps.original_indices = stage_info.gate_indices;
          ps.partition = stage_info.partition;
          ps.subcircuit = c.subcircuit(stage_info.gate_indices);
          ps.kernels = kernelize_fn(ps.subcircuit, cfg.cost_model);
          plan.stages.push_back(std::move(ps));
        }
        EXPECT_TRUE(clean(verify::verify_plan(
            plan, shape, cfg.cost_model, &c, verify::VerifyLevel::paranoid)));
        exec::DistState state =
            session.executor().initial_state(plan, session.cluster());
        session.execute(plan, state);
        EXPECT_LT(state.gather().max_abs_diff(expected), 1e-10);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Baseline comparisons hold across families (the benches' premises).

TEST(Property, AtlasModeledTimeAtMostQiskitEverywhere) {
  for (const auto& family : circuits::family_names()) {
    const int n = 12;
    SessionConfig cfg;
    cfg.cluster.local_qubits = 9;
    cfg.cluster.regional_qubits = 2;
    cfg.cluster.global_qubits = 1;
    cfg.cluster.gpus_per_node = 4;
    const Circuit c = circuits::make_family(family, n);
    const Session session(cfg);
    const auto atlas_run = session.simulate(c);
    const auto qiskit =
        baselines::run_baseline(baselines::BaselineKind::Qiskit, c, cfg);
    const int gpus = 8;
    const double ta = atlas_run.report.modeled_seconds(cfg.comm, gpus, 2);
    const double tq = qiskit.report.modeled_seconds(cfg.comm, gpus, 2);
    EXPECT_LE(ta, tq * 1.05) << family;
  }
}

TEST(Property, CommStatsAccumulate) {
  device::CommStats a, b;
  a.intra_node_bytes = 10;
  a.inter_node_bytes = 20;
  a.alltoall_rounds = 1;
  b.intra_node_bytes = 5;
  b.offload_bytes = 7;
  a += b;
  EXPECT_EQ(a.intra_node_bytes, 15u);
  EXPECT_EQ(a.inter_node_bytes, 20u);
  EXPECT_EQ(a.offload_bytes, 7u);
  EXPECT_EQ(a.alltoall_rounds, 1);
}

TEST(Property, ModeledTimeScalesDownWithGpus) {
  device::CommStats s;
  s.inter_node_bytes = 1 << 30;
  s.kernel_bytes = 1 << 30;
  s.alltoall_rounds = 1;
  const auto m = device::CommCostModel::perlmutter_like();
  const double t1 = s.modeled_comm_seconds(m, 4, 1) +
                    s.modeled_compute_seconds(m, 4);
  const double t2 = s.modeled_comm_seconds(m, 16, 4) +
                    s.modeled_compute_seconds(m, 16);
  EXPECT_LT(t2, t1);
}

// --------------------------------------------------------------------------
// Initial-state generality: EXECUTE works for arbitrary input states
// (the paper notes PARTITION does not depend on the state).

TEST(Property, ExecuteOnRandomInitialState) {
  const int n = 10;
  const Circuit c = circuits::ising(n);
  SessionConfig cfg;
  cfg.cluster.local_qubits = 7;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 4;
  const Session session(cfg);
  const exec::ExecutionPlan plan = *session.plan(c);
  const StateVector initial = StateVector::random(n, 321);

  // Scatter the random state into stage 0's layout and execute.
  const exec::Layout layout0 = exec::Layout::for_partition(
      plan.stages.front().partition, 7, 2, exec::Layout::identity(n, 7));
  exec::DistState st = exec::DistState::scatter(initial, layout0);
  session.execute(plan, st);
  const StateVector expected = simulate_reference(c, initial);
  EXPECT_LT(st.gather().max_abs_diff(expected), 1e-8);
}

}  // namespace
}  // namespace atlas
