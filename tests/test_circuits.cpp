// Tests for the benchmark circuit generators: gate-count formulas
// (Table I where exact), structural invariants, scalability.

#include <gtest/gtest.h>

#include "circuits/families.h"

namespace atlas {
namespace {

struct CountCase {
  std::string family;
  int qubits;
  int expected_gates;
};

class TableICountTest : public ::testing::TestWithParam<CountCase> {};

TEST_P(TableICountTest, MatchesPaperTableI) {
  const auto& p = GetParam();
  const Circuit c = circuits::make_family(p.family, p.qubits);
  EXPECT_EQ(c.num_gates(), p.expected_gates)
      << p.family << " @ " << p.qubits << " qubits";
}

// The families whose MQT-Bench gate counts our constructions match
// exactly (bench_circuit_table prints the remaining families' deltas).
INSTANTIATE_TEST_SUITE_P(
    ExactFamilies, TableICountTest,
    ::testing::Values(CountCase{"ghz", 28, 28}, CountCase{"ghz", 36, 36},
                      CountCase{"dj", 28, 82}, CountCase{"dj", 33, 97},
                      CountCase{"graphstate", 28, 56},
                      CountCase{"graphstate", 34, 68},
                      CountCase{"ising", 28, 302}, CountCase{"ising", 36, 390},
                      CountCase{"qft", 28, 406}, CountCase{"qft", 32, 528},
                      CountCase{"qsvm", 28, 274}, CountCase{"qsvm", 35, 344},
                      CountCase{"wstate", 28, 109},
                      CountCase{"wstate", 36, 141}));

TEST(Families, AllFamiliesScaleAcrossTableRange) {
  for (const auto& name : circuits::family_names()) {
    int prev = 0;
    for (int n = 28; n <= 36; ++n) {
      const Circuit c = circuits::make_family(name, n);
      EXPECT_EQ(c.num_qubits(), n);
      EXPECT_GT(c.num_gates(), 0);
      EXPECT_GE(c.num_gates(), prev) << name << " should not shrink with n";
      prev = c.num_gates();
    }
  }
}

TEST(Families, EveryQubitIsTouched) {
  for (const auto& name : circuits::family_names()) {
    const Circuit c = circuits::make_family(name, 9);
    std::vector<bool> touched(c.num_qubits(), false);
    for (const Gate& g : c.gates())
      for (Qubit q : g.qubits()) touched[q] = true;
    for (int q = 0; q < c.num_qubits(); ++q)
      EXPECT_TRUE(touched[q]) << name << " leaves qubit " << q << " idle";
  }
}

TEST(Families, DeterministicForFixedSeed) {
  const Circuit a = circuits::su2random(8);
  const Circuit b = circuits::su2random(8);
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (int i = 0; i < a.num_gates(); ++i)
    EXPECT_EQ(a.gate(i).params(), b.gate(i).params());
}

TEST(Hhl, GateCountGrowsExponentially) {
  const int g4 = circuits::hhl(4, 12).num_gates();
  const int g7 = circuits::hhl(7, 12).num_gates();
  const int g9 = circuits::hhl(9, 12).num_gates();
  const int g10 = circuits::hhl(10, 12).num_gates();
  EXPECT_LT(g4, g7);
  EXPECT_LT(g7, g9);
  EXPECT_LT(g9, g10);
  // Table II shape: the 9->10 step roughly doubles the gate count.
  EXPECT_GT(static_cast<double>(g10) / g9, 1.7);
  // And 9 qubits is already in the tens of thousands.
  EXPECT_GT(g9, 10000);
}

TEST(Hhl, PaddingAddsIdleQubitsOnly) {
  const Circuit c = circuits::hhl(5, 20);
  EXPECT_EQ(c.num_qubits(), 20);
  for (const Gate& g : c.gates())
    for (Qubit q : g.qubits()) EXPECT_LT(q, 5);
}

TEST(RandomCircuit, RespectsGateCountAndQubitRange) {
  const Circuit c = circuits::random_circuit(7, 123, 5);
  EXPECT_EQ(c.num_gates(), 123);
  for (const Gate& g : c.gates())
    for (Qubit q : g.qubits()) EXPECT_LT(q, 7);
}

TEST(MakeFamily, ThrowsOnUnknownName) {
  EXPECT_THROW(circuits::make_family("nope", 10), Error);
}

}  // namespace
}  // namespace atlas
