// Staging tests: reduction correctness, ILP model (Eq. 3-11), the
// specialized branch-and-bound engine, minimality cross-validation,
// and the SnuQS baseline.

#include <gtest/gtest.h>

#include "circuits/families.h"
#include "common/bits.h"
#include "staging/reduce.h"
#include "staging/snuqs.h"
#include "staging/stager.h"
#include "verify_matchers.h"

namespace atlas {
namespace staging {
namespace {

MachineShape shape_of(int n, int local, int regional, int global) {
  MachineShape s;
  s.num_local = local;
  s.num_regional = regional;
  s.num_global = global;
  EXPECT_EQ(s.total(), n);
  return s;
}

TEST(Reduce, InsularGatesContracted) {
  Circuit c(3);
  c.add(Gate::h(0));        // non-insular {0}
  c.add(Gate::cz(0, 1));    // fully insular -> contracted
  c.add(Gate::h(1));        // non-insular {1}, depends on h(0) via cz
  const ReducedCircuit rc = reduce(c);
  ASSERT_EQ(rc.gates.size(), 2u);
  EXPECT_EQ(rc.reduced_of_original[1], -1);
  // h(1) must inherit the dependency on h(0) through the contracted cz.
  ASSERT_EQ(rc.gates[1].preds.size(), 1u);
  EXPECT_EQ(rc.gates[1].preds[0], 0);
}

TEST(Reduce, SubsumptionMerge) {
  Circuit c(2);
  c.add(Gate::h(0));           // reduced gate 0, ni {0}
  c.add(Gate::ry(0, 0.5));     // ni {0}, single pred -> merged into 0
  c.add(Gate::h(1));           // reduced gate 1
  const ReducedCircuit rc = reduce(c);
  ASSERT_EQ(rc.gates.size(), 2u);
  EXPECT_EQ(rc.gates[0].originals.size(), 2u);
  EXPECT_EQ(rc.reduced_of_original[1], 0);
}

TEST(Reduce, QftCollapsesToHChain) {
  // In QFT all cp gates are insular; the model is just the n H gates
  // in a dependency chain.
  const Circuit c = circuits::qft(8);
  const ReducedCircuit rc = reduce(c);
  EXPECT_EQ(rc.gates.size(), 8u);
  for (const auto& g : rc.gates) EXPECT_EQ(popcount(g.ni_mask), 1);
}

TEST(Reduce, AssignOriginalStagesRespectsDependencies) {
  const Circuit c = circuits::qft(6);
  const ReducedCircuit rc = reduce(c);
  std::vector<int> stage_of_reduced(rc.gates.size());
  for (std::size_t g = 0; g < rc.gates.size(); ++g)
    stage_of_reduced[g] = static_cast<int>(g / 3);
  const auto stages = assign_original_stages(c, rc, stage_of_reduced);
  for (const auto& [a, b] : c.dependency_edges())
    EXPECT_LE(stages[a], stages[b]);
}

// ---------------------------------------------------------------------------
// Engine-level tests. Every result must pass verify_staged.

class StagingFamilyTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(StagingFamilyTest, ProducesValidStaging) {
  const auto& [family, engine] = GetParam();
  const int n = 10;
  const Circuit c = circuits::make_family(family, n);
  const MachineShape shape = shape_of(n, 6, 2, 2);
  const StagedCircuit staged = engine == "bnb" ? stage_with_bnb(c, shape)
                                                : stage_with_snuqs(c, shape);
  EXPECT_TRUE(clean(verify::verify_staged(c, staged, shape)));
  EXPECT_GE(staged.stages.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    BnbAllFamilies, StagingFamilyTest,
    ::testing::Combine(::testing::ValuesIn(circuits::family_names()),
                       ::testing::Values("bnb")));

INSTANTIATE_TEST_SUITE_P(
    SnuqsAllFamilies, StagingFamilyTest,
    ::testing::Combine(::testing::ValuesIn(circuits::family_names()),
                       ::testing::Values("snuqs")));

TEST(Staging, SingleStageWhenEverythingFitsLocally) {
  const Circuit c = circuits::ghz(6);
  const StagedCircuit staged = stage_circuit(c, shape_of(6, 6, 0, 0));
  EXPECT_EQ(staged.stages.size(), 1u);
  EXPECT_EQ(staged.comm_cost, 0.0);
}

TEST(Staging, GhzChainStageCountMatchesPrefixPacking) {
  // GHZ's reduced model is a CX-target chain; with L locals a stage
  // covers at most L new qubits, and the first stage covers L
  // (including qubit 0 via H). Minimal stages = ceil((n-1)/(L-?)).
  // Cross-check the engine against the ILP on a small instance.
  const int n = 8;
  const Circuit c = circuits::ghz(n);
  const MachineShape shape = shape_of(n, 4, 2, 2);
  const StagedCircuit via_bnb = stage_with_bnb(c, shape);
  const auto via_ilp = stage_with_ilp(c, shape);
  ASSERT_TRUE(via_ilp.has_value());
  EXPECT_TRUE(clean(verify::verify_staged(c, via_bnb, shape)));
  EXPECT_TRUE(clean(verify::verify_staged(c, *via_ilp, shape)));
  EXPECT_EQ(via_bnb.stages.size(), via_ilp->stages.size());
}

struct CrossCase {
  std::string name;
  Circuit circuit;
  MachineShape shape;
};

std::vector<CrossCase> cross_cases() {
  std::vector<CrossCase> cases;
  cases.push_back({"ghz8_L4", circuits::ghz(8), shape_of(8, 4, 2, 2)});
  cases.push_back({"dj7_L4", circuits::dj(7), shape_of(7, 4, 2, 1)});
  cases.push_back({"wstate6_L3", circuits::wstate(6), shape_of(6, 3, 2, 1)});
  cases.push_back(
      {"graphstate7_L4", circuits::graphstate(7), shape_of(7, 4, 2, 1)});
  cases.push_back({"qft9_L5", circuits::qft(9), shape_of(9, 5, 2, 2)});
  cases.push_back(
      {"random8", circuits::random_circuit(8, 25, 77), shape_of(8, 5, 2, 1)});
  cases.push_back(
      {"random7b", circuits::random_circuit(7, 18, 99), shape_of(7, 4, 2, 1)});
  return cases;
}

class IlpVsBnbTest : public ::testing::TestWithParam<int> {};

TEST_P(IlpVsBnbTest, StageCountsAgree) {
  // The ILP is exact (Theorem 1: minimum feasible stage count). The
  // specialized engine must match it on every small instance.
  const CrossCase cse = cross_cases()[GetParam()];
  IlpStagerOptions ilp_opt;
  ilp_opt.node_budget = 200000;
  const auto via_ilp = stage_with_ilp(cse.circuit, cse.shape, ilp_opt);
  ASSERT_TRUE(via_ilp.has_value()) << cse.name;
  const StagedCircuit via_bnb = stage_with_bnb(cse.circuit, cse.shape);
  EXPECT_TRUE(clean(verify::verify_staged(cse.circuit, *via_ilp, cse.shape)));
  EXPECT_TRUE(clean(verify::verify_staged(cse.circuit, via_bnb, cse.shape)));
  EXPECT_EQ(via_bnb.stages.size(), via_ilp->stages.size()) << cse.name;
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, IlpVsBnbTest,
                         ::testing::Range(0, 7));

TEST(Staging, BnbNeverWorseThanSnuqsOnFamilies) {
  // Theorem 1 + Fig. 9: the optimizing stager returns at most as many
  // stages as the heuristic baseline.
  for (const auto& family : circuits::family_names()) {
    const int n = 12;
    const Circuit c = circuits::make_family(family, n);
    const MachineShape shape = shape_of(n, 7, 2, 3);
    const auto atlas_staged = stage_with_bnb(c, shape);
    const auto snuqs_staged = stage_with_snuqs(c, shape);
    EXPECT_TRUE(clean(verify::verify_staged(c, atlas_staged, shape)));
    EXPECT_TRUE(clean(verify::verify_staged(c, snuqs_staged, shape)));
    EXPECT_LE(atlas_staged.stages.size(), snuqs_staged.stages.size())
        << family;
  }
}

TEST(Staging, CommCostConsistentWithPartitions) {
  const Circuit c = circuits::qft(10);
  const MachineShape shape = shape_of(10, 5, 3, 2);
  const StagedCircuit staged = stage_circuit(c, shape);
  EXPECT_DOUBLE_EQ(staged.comm_cost,
                   communication_cost(staged.stages, shape.cost_factor));
}

TEST(Staging, ThrowsWhenGateCannotFit) {
  Circuit c(5);
  // A 3-qubit non-insular gate (fused Hadamards) with only 2 local
  // qubits. (An identity/diagonal matrix would be insular and legal.)
  const Matrix h = Gate::h(0).target_matrix();
  c.add(Gate::unitary({0, 1, 2}, h.kron(h).kron(h)));
  EXPECT_THROW(stage_circuit(c, shape_of(5, 2, 2, 1)), Error);
}

TEST(Staging, LargeCircuitCompletesQuickly) {
  // The engine must scale to paper-size circuits (vqc@31 has ~2.9k
  // gates before reduction).
  const Circuit c = circuits::vqc(31);
  const MachineShape shape = shape_of(31, 25, 2, 4);
  const StagedCircuit staged = stage_circuit(c, shape);
  EXPECT_TRUE(clean(verify::verify_staged(c, staged, shape)));
  EXPECT_GE(staged.stages.size(), 2u);
}

TEST(Snuqs, WorseOrEqualWithMoreLocals) {
  // Sanity on the baseline: it always yields a valid staging across a
  // sweep of local sizes.
  const Circuit c = circuits::ising(12);
  for (int local = 4; local <= 12; ++local) {
    MachineShape shape;
    shape.num_local = local;
    shape.num_global = std::min(2, 12 - local);
    shape.num_regional = 12 - local - shape.num_global;
    const auto staged = stage_with_snuqs(c, shape);
    EXPECT_TRUE(clean(verify::verify_staged(c, staged, shape)));
  }
}

}  // namespace
}  // namespace staging
}  // namespace atlas
