// Baseline-simulator tests: each comparator strategy must be *correct*
// (same final state as the reference) while exhibiting its
// characteristic inefficiency relative to Atlas (more kernels, more
// stages, or more offload traffic).

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "circuits/families.h"
#include "sim/reference.h"

namespace atlas {
namespace {

SessionConfig config_for(int local, int regional, int global, int gpus) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = gpus;
  cfg.cluster.num_threads = 2;
  return cfg;
}

using baselines::BaselineKind;

class BaselineCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<std::string, BaselineKind>> {
};

TEST_P(BaselineCorrectnessTest, MatchesReference) {
  const auto& [family, kind] = GetParam();
  const int n = 11;
  const Circuit c = circuits::make_family(family, n);
  const auto result = baselines::run_baseline(kind, c, config_for(8, 2, 1, 4));
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8)
      << family << " under " << baselines::baseline_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllBaselines, BaselineCorrectnessTest,
    ::testing::Combine(
        ::testing::Values("ghz", "qft", "wstate", "ising", "su2random"),
        ::testing::Values(BaselineKind::Qiskit, BaselineKind::CuQuantum,
                          BaselineKind::HyQuas)));

TEST(Baselines, QdaoOffloadCorrectAndHeavier) {
  // Offloading shape: 8 DRAM shards/node, 1 physical GPU.
  SessionConfig cfg = config_for(7, 3, 0, 1);
  ASSERT_TRUE(cfg.cluster.offloading());
  const Circuit c = circuits::qft(10);
  const auto qdao = baselines::run_baseline(BaselineKind::Qdao, c, cfg);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(qdao.state.gather().max_abs_diff(expected), 1e-8);

  // Atlas on the same shape: one reload per stage, not per kernel.
  const Session session(cfg);
  const auto atlas_result = session.simulate(c);
  EXPECT_LT(atlas_result.state.gather().max_abs_diff(expected), 1e-8);
  EXPECT_GT(qdao.report.totals.offload_bytes,
            atlas_result.report.totals.offload_bytes);
}

TEST(Baselines, QiskitLaunchesOneKernelPerGate) {
  const Circuit c = circuits::ghz(11);
  const auto plan =
      baselines::plan_baseline(BaselineKind::Qiskit, c, config_for(8, 2, 1, 4));
  int kernels = 0, gates = 0;
  for (const auto& st : plan.stages) {
    kernels += static_cast<int>(st.kernels.kernels.size());
    gates += st.subcircuit.num_gates();
  }
  EXPECT_EQ(kernels, gates);
}

TEST(Baselines, AtlasKernelCostAtMostBaselines) {
  // Fig. 10's premise: the DP kernel cost beats greedy and per-gate
  // execution on every family.
  SessionConfig cfg = config_for(11, 0, 0, 1);
  const Session session(cfg);
  for (const auto& family : circuits::family_names()) {
    const Circuit c = circuits::make_family(family, 11);
    const exec::ExecutionPlan atlas_plan = *session.plan(c);
    for (const auto kind : {BaselineKind::Qiskit, BaselineKind::CuQuantum}) {
      const auto base_plan = baselines::plan_baseline(kind, c, cfg);
      EXPECT_LE(atlas_plan.kernel_cost_total,
                base_plan.kernel_cost_total + 1e-9)
          << family << " vs " << baselines::baseline_name(kind);
    }
  }
}

TEST(Baselines, AtlasStagesAtMostSnuqsStages) {
  // The end-to-end speed edge at scale comes from fewer stages; Atlas
  // must never need more than the heuristic staging baselines.
  SessionConfig cfg = config_for(8, 2, 2, 4);
  const Session session(cfg);
  for (const auto& family : circuits::family_names()) {
    const Circuit c = circuits::make_family(family, 12);
    const exec::ExecutionPlan atlas_plan = *session.plan(c);
    const auto qiskit_plan =
        baselines::plan_baseline(BaselineKind::Qiskit, c, cfg);
    EXPECT_LE(atlas_plan.stages.size(), qiskit_plan.stages.size()) << family;
  }
}

}  // namespace
}  // namespace atlas
