// SimulationResult query-facade tests on *parameterized* circuits:
// probability/amplitude/marginal/expectation_z/sample must agree with
// the reference simulator for every binding of a compiled circuit, and
// sampling must be deterministic under a fixed Rng — all without the
// caller ever touching exec::DistState.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/session.h"
#include "sim/reference.h"

namespace atlas {
namespace {

SessionConfig facade_config() {
  SessionConfig cfg;
  cfg.cluster.local_qubits = 4;
  cfg.cluster.regional_qubits = 1;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 2;
  cfg.cluster.num_threads = 2;
  return cfg;
}

/// A 6-qubit parameterized circuit exercising both insular (rzz, rz)
/// and non-insular (rx, h, cx) symbolic gates.
Circuit facade_ansatz() {
  Circuit c(6, "facade_ansatz");
  const Param theta = Param::symbol("theta");
  const Param gamma = Param::symbol("gamma");
  for (Qubit q = 0; q < 6; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q + 1 < 6; ++q) c.add(Gate::rzz(q, q + 1, gamma));
  for (Qubit q = 0; q < 6; ++q) c.add(Gate::rx(q, theta));
  c.add(Gate::cx(0, 3));
  c.add(Gate::rz(5, 2.0 * theta));
  return c;
}

class ResultFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ParamBinding binding{{"theta", 0.83}, {"gamma", -0.41}};
    result_ = session_.run(session_.compile(facade_ansatz()), binding);
    reference_ = simulate_reference(facade_ansatz().bind(binding));
  }

  Session session_{facade_config()};
  SimulationResult result_;
  StateVector reference_;
};

TEST_F(ResultFacadeTest, AmplitudeAndProbabilityMatchReference) {
  for (Index i : {Index{0}, Index{1}, Index{13}, Index{63}}) {
    const Amp a = result_.amplitude(i);
    EXPECT_NEAR(std::abs(a - reference_[i]), 0.0, 1e-12) << "index " << i;
    EXPECT_NEAR(result_.probability(i), std::norm(reference_[i]), 1e-12);
  }
  EXPECT_NEAR(result_.norm_sq(), 1.0, 1e-10);
}

TEST_F(ResultFacadeTest, MarginalMatchesReference) {
  const std::vector<Qubit> qubits = {1, 4};
  const std::vector<double> dist = result_.marginal(qubits);
  ASSERT_EQ(dist.size(), 4u);
  std::vector<double> expect(4, 0.0);
  for (Index i = 0; i < reference_.size(); ++i) {
    Index out = 0;
    if ((i >> 1) & 1) out |= 1;
    if ((i >> 4) & 1) out |= 2;
    expect[out] += std::norm(reference_[i]);
  }
  double total = 0;
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(dist[k], expect[k], 1e-10) << "outcome " << k;
    total += dist[k];
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST_F(ResultFacadeTest, ExpectationZMatchesReference) {
  for (Qubit q = 0; q < 6; ++q) {
    double expect = 0;
    for (Index i = 0; i < reference_.size(); ++i)
      expect += std::norm(reference_[i]) * (((i >> q) & 1) ? -1.0 : 1.0);
    EXPECT_NEAR(result_.expectation_z(q), expect, 1e-10) << "qubit " << q;
  }
}

TEST_F(ResultFacadeTest, SampleIsDeterministicUnderFixedRng) {
  Rng rng_a(1234), rng_b(1234), rng_c(99);
  const std::vector<Index> s1 = result_.sample(64, rng_a);
  const std::vector<Index> s2 = result_.sample(64, rng_b);
  EXPECT_EQ(s1, s2);  // same seed, bit-identical draw
  EXPECT_NE(s1, result_.sample(64, rng_c));  // and seed-sensitive

  // Every drawn basis state has nonzero probability in the reference.
  for (Index i : s1) {
    ASSERT_LT(i, reference_.size());
    EXPECT_GT(std::norm(reference_[i]), 0.0);
  }
}

TEST_F(ResultFacadeTest, FacadeAgreesAcrossBindingsOfOnePlan) {
  // One compiled plan, several bindings: the facade must track each
  // binding's physics, not the first one's.
  const CompiledCircuit compiled = session_.compile(facade_ansatz());
  for (double theta : {0.0, 0.5, 2.2}) {
    const ParamBinding b{{"theta", theta}, {"gamma", 0.3}};
    const SimulationResult r = session_.run(compiled, b);
    const StateVector ref = simulate_reference(facade_ansatz().bind(b));
    double expect = 0;
    for (Index i = 0; i < ref.size(); ++i)
      expect += std::norm(ref[i]) * (((i >> 2) & 1) ? -1.0 : 1.0);
    EXPECT_NEAR(r.expectation_z(2), expect, 1e-10) << "theta " << theta;
  }
}

}  // namespace
}  // namespace atlas
