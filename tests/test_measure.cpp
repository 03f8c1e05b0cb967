// Tests for measurement/observable utilities, on both full state
// vectors (sim/measure) and distributed states (exec/queries), and for
// the circuit transform toolbox (inverse, depth, statistics).

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/families.h"
#include "core/session.h"
#include "exec/queries.h"
#include "opt/rewrite.h"
#include "sim/measure.h"
#include "sim/reference.h"

namespace atlas {
namespace {

TEST(Measure, GhzProbabilities) {
  const StateVector sv = simulate_reference(circuits::ghz(5));
  EXPECT_NEAR(probability(sv, 0), 0.5, 1e-12);
  EXPECT_NEAR(probability(sv, 31), 0.5, 1e-12);
  EXPECT_NEAR(probability(sv, 7), 0.0, 1e-12);
}

TEST(Measure, MarginalOfGhzSingleQubit) {
  const StateVector sv = simulate_reference(circuits::ghz(6));
  const auto dist = marginal_distribution(sv, {3});
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_NEAR(dist[0], 0.5, 1e-12);
  EXPECT_NEAR(dist[1], 0.5, 1e-12);
}

TEST(Measure, MarginalSumsToOne) {
  const StateVector sv = StateVector::random(8, 3);
  const auto dist = marginal_distribution(sv, {1, 4, 6});
  double total = 0;
  for (double p : dist) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Measure, SamplingMatchesDistribution) {
  // W state: each one-hot outcome with probability 1/n.
  const int n = 4;
  const StateVector sv = simulate_reference(circuits::wstate(n));
  Rng rng(42);
  const auto samples = sample(sv, 4000, rng);
  std::vector<int> counts(1 << n, 0);
  for (Index s : samples) counts[s]++;
  for (int q = 0; q < n; ++q) {
    const double freq = counts[1 << q] / 4000.0;
    EXPECT_NEAR(freq, 0.25, 0.05) << "qubit " << q;
  }
}

// Chi-square goodness of fit for the inverse-CDF sampler: 20000 shots
// from a known 3-qubit distribution. With 7 degrees of freedom the
// 1e-6 critical value is ~35.3; the fixed seed makes the draw (and so
// the statistic) deterministic, so this cannot flake — it fails only
// if the sampler's distribution drifts.
TEST(Measure, ChiSquareAgainstKnownDistribution) {
  Circuit c(3);
  c.add(Gate::h(0));
  c.add(Gate::cx(0, 1));
  c.add(Gate::ry(2, 0.9));
  const StateVector sv = simulate_reference(c);
  const int shots = 20000;
  Rng rng(1234);
  const auto samples = sample(sv, shots, rng);
  std::vector<double> observed(8, 0.0);
  for (Index s : samples) observed[s] += 1.0;
  double chi_sq = 0;
  for (Index i = 0; i < 8; ++i) {
    const double expected = probability(sv, i) * shots;
    if (expected < 1e-9) {
      EXPECT_EQ(observed[i], 0.0) << "impossible outcome " << i << " drawn";
      continue;
    }
    const double d = observed[i] - expected;
    chi_sq += d * d / expected;
  }
  EXPECT_LT(chi_sq, 35.3);
}

// The distributed sampler must pass the same test through a sharded
// layout, and the weighted overload must sample the *normalized*
// distribution of a scaled state.
TEST(DistQueries, ChiSquareAndWeightedSampling) {
  const int n = 5;
  SessionConfig cfg;
  cfg.cluster.local_qubits = 3;
  cfg.cluster.regional_qubits = 1;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 2;
  const Session session(cfg);
  Circuit c(n);
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  c.add(Gate::cx(0, 4));
  const auto result = session.simulate(c);
  const StateVector gathered = result.state.gather();

  const int shots = 20000;
  Rng rng(77);
  const auto samples = exec::sample(result.state, shots, rng);
  std::vector<double> observed(Index{1} << n, 0.0);
  for (Index s : samples) observed[s] += 1.0;
  double chi_sq = 0;
  int dof = -1;
  for (Index i = 0; i < observed.size(); ++i) {
    const double expected = probability(gathered, i) * shots;
    if (expected < 1e-9) continue;
    const double d = observed[i] - expected;
    chi_sq += d * d / expected;
    ++dof;
  }
  // 1e-6 critical value for 31 dof is ~78.
  EXPECT_EQ(dof, 31);
  EXPECT_LT(chi_sq, 78.0);

  // Weighted overload: scale the state by 1/2 (norm^2 = 1/4) and
  // sample with the norm passed through — same distribution.
  exec::DistState scaled = result.state;
  for (int s = 0; s < scaled.num_shards(); ++s)
    for (Amp& a : scaled.shard(s)) a *= 0.5;
  Rng rng_a(99), rng_b(99);
  EXPECT_EQ(exec::sample(scaled, 200, rng_a, 0.25),
            exec::sample(result.state, 200, rng_b, 1.0));
}

// Counter-based streams: the per-result sample() overload is
// deterministic, distinct across calls, and replays exactly.
TEST(Measure, ResultSampleStreamsAreDeterministic) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = 5;
  cfg.cluster.gpus_per_node = 1;
  cfg.seed = 42;
  const Session session(cfg);
  const Circuit c = circuits::ghz(5);
  const SimulationResult r1 = session.simulate(c);
  const SimulationResult r2 = session.simulate(c);
  ASSERT_NE(r1.seed, 0u);
  EXPECT_EQ(r1.seed, r2.seed);  // same run identity -> same stream
  const auto a = r1.sample(100);
  const auto b = r1.sample(100);  // next call, next stream
  EXPECT_NE(a, b);
  EXPECT_EQ(a, r2.sample(100));  // replays on an identical run

  SessionConfig other = cfg;
  other.seed = 43;
  const SimulationResult r3 = Session(other).simulate(c);
  EXPECT_NE(r3.seed, r1.seed);  // session seed feeds the stream
}

TEST(Measure, ExpectationZ) {
  // |0>: <Z>=+1. X|0>=|1>: <Z>=-1. H|0>: <Z>=0.
  StateVector a(1);
  EXPECT_NEAR(expectation_z(a, 0), 1.0, 1e-12);
  {
    Circuit c(1);
    c.add(Gate::x(0));
    EXPECT_NEAR(expectation_z(simulate_reference(c), 0), -1.0, 1e-12);
  }
  {
    Circuit c(1);
    c.add(Gate::h(0));
    EXPECT_NEAR(expectation_z(simulate_reference(c), 0), 0.0, 1e-12);
  }
}

TEST(Measure, GhzZZCorrelation) {
  const StateVector sv = simulate_reference(circuits::ghz(5));
  // GHZ: perfectly correlated in Z.
  EXPECT_NEAR(expectation_zz(sv, 0, 4), 1.0, 1e-12);
  EXPECT_NEAR(expectation_z(sv, 2), 0.0, 1e-12);
}

// --------------------------------------------------------------------------
// Distributed queries must agree with gathered-state measurements.

TEST(DistQueries, AgreeWithGatheredState) {
  const int n = 11;
  const Circuit c = circuits::random_circuit(n, 60, 9);
  SessionConfig cfg;
  cfg.cluster.local_qubits = 7;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 2;
  cfg.cluster.gpus_per_node = 4;
  const Session session(cfg);
  const auto result = session.simulate(c);
  const StateVector gathered = result.state.gather();

  EXPECT_NEAR(exec::norm_sq(result.state), 1.0, 1e-9);
  for (Index i : {Index{0}, Index{5}, Index{100}, Index{2047}}) {
    EXPECT_LT(std::abs(exec::amplitude(result.state, i) - gathered[i]),
              1e-12);
  }
  const auto d1 = exec::marginal_distribution(result.state, {0, 8, 10});
  const auto d2 = marginal_distribution(gathered, {0, 8, 10});
  for (std::size_t i = 0; i < d1.size(); ++i)
    EXPECT_NEAR(d1[i], d2[i], 1e-9);
  EXPECT_NEAR(exec::expectation_z(result.state, 9),
              expectation_z(gathered, 9), 1e-9);
}

TEST(DistQueries, SamplingDistributedGhz) {
  const int n = 10;
  SessionConfig cfg;
  cfg.cluster.local_qubits = 7;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 4;
  const Session session(cfg);
  const auto result = session.simulate(circuits::ghz(n));
  Rng rng(7);
  const auto samples = exec::sample(result.state, 500, rng);
  const Index all_ones = (Index{1} << n) - 1;
  int zeros = 0, ones = 0;
  for (Index s : samples) {
    if (s == 0) ++zeros;
    else if (s == all_ones) ++ones;
    else FAIL() << "GHZ sample was " << s;
  }
  EXPECT_GT(zeros, 150);
  EXPECT_GT(ones, 150);
}

// --------------------------------------------------------------------------
// Circuit transforms.

class InverseRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InverseRoundTripTest, CircuitTimesInverseIsIdentity) {
  const Circuit c = circuits::make_family(GetParam(), 7);
  const Circuit inv = inverse(c);
  Circuit round(7);
  for (const Gate& g : c.gates()) round.add(g);
  for (const Gate& g : inv.gates()) round.add(g);
  const StateVector initial = StateVector::random(7, 55);
  const StateVector out = simulate_reference(round, initial);
  EXPECT_LT(out.max_abs_diff(initial), 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, InverseRoundTripTest,
                         ::testing::ValuesIn(circuits::family_names()));

TEST(Transform, InverseOfRandomCircuit) {
  const Circuit c = circuits::random_circuit(6, 50, 77);
  const Circuit inv = inverse(c);
  Circuit round(6);
  for (const Gate& g : c.gates()) round.add(g);
  for (const Gate& g : inv.gates()) round.add(g);
  const StateVector initial = StateVector::random(6, 4);
  EXPECT_LT(simulate_reference(round, initial).max_abs_diff(initial), 1e-9);
}

TEST(Transform, Depth) {
  Circuit c(3);
  EXPECT_EQ(depth(c), 0);
  c.add(Gate::h(0));
  c.add(Gate::h(1));   // parallel with h(0)
  EXPECT_EQ(depth(c), 1);
  c.add(Gate::cx(0, 1));
  EXPECT_EQ(depth(c), 2);
  c.add(Gate::h(2));   // parallel with everything
  EXPECT_EQ(depth(c), 2);
}

TEST(Transform, Statistics) {
  const Circuit c = circuits::qft(6);
  const CircuitStats s = statistics(c);
  EXPECT_EQ(s.num_gates, 21);
  EXPECT_EQ(s.gate_histogram.at("h"), 6);
  EXPECT_EQ(s.gate_histogram.at("cp"), 15);
  EXPECT_EQ(s.fully_insular_gates, 15);  // all cp gates
  EXPECT_EQ(s.multi_qubit_gates, 15);
}

}  // namespace
}  // namespace atlas
