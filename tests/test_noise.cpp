// The noise engine: channel/model validation error paths, trajectory
// compilation (Pauli twirl sharing one CompiledCircuit and one
// plan-cache entry across the batch), determinism of the counter-based
// trajectory streams under dispatch parallelism, and — the core
// acceptance gate — convergence of trajectory averages to the exact
// density-matrix reference within 5 sigma for every built-in channel.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include <set>

#include "core/session.h"
#include "noise/channel.h"
#include "noise/density_ref.h"
#include "noise/model.h"
#include "noise/trajectory.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "sim/reference.h"

namespace atlas {
namespace {

using noise::DensityMatrix;
using noise::Estimate;
using noise::KrausChannel;
using noise::NoiseModel;
using noise::NoisyResult;
using noise::NoisyRunOptions;
using noise::TrajectoryProgram;

SessionConfig shaped(int local, int regional, int global) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = 1 << regional;
  return cfg;
}

/// A small entangling test circuit touching every qubit.
Circuit test_circuit(int n) {
  Circuit c(n, "noise_test");
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q + 1 < n; ++q) c.add(Gate::cx(q, q + 1));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::ry(q, 0.3 + 0.2 * q));
  c.add(Gate::cx(n - 1, 0));
  return c;
}

// --------------------------------------------------------------------------
// Channel and model validation error paths.

TEST(KrausChannel, BuiltinsAreValidAndClassified) {
  EXPECT_TRUE(KrausChannel::depolarizing(0.1).is_pauli());
  EXPECT_TRUE(KrausChannel::bit_flip(0.1).is_pauli());
  EXPECT_TRUE(KrausChannel::phase_flip(0.1).is_pauli());
  EXPECT_TRUE(KrausChannel::bit_phase_flip(0.1).is_pauli());
  EXPECT_TRUE(KrausChannel::depolarizing2(0.1).is_pauli());
  EXPECT_EQ(KrausChannel::depolarizing2(0.1).num_qubits(), 2);
  EXPECT_FALSE(KrausChannel::amplitude_damping(0.1).is_pauli());
  EXPECT_FALSE(KrausChannel::phase_damping(0.1).is_pauli());
}

TEST(KrausChannel, OutcomeWeightsSumToOne) {
  for (const KrausChannel& ch :
       {KrausChannel::depolarizing(0.2), KrausChannel::amplitude_damping(0.3),
        KrausChannel::phase_damping(0.4), KrausChannel::depolarizing2(0.15)}) {
    double total = 0;
    for (double w : ch.outcome_weights()) total += w;
    EXPECT_NEAR(total, 1.0, 1e-9) << ch.name();
  }
}

TEST(KrausChannel, ValidationErrorPaths) {
  EXPECT_THROW(KrausChannel::depolarizing(-0.1), Error);
  EXPECT_THROW(KrausChannel::depolarizing(1.5), Error);
  EXPECT_THROW(KrausChannel::amplitude_damping(2.0), Error);
  // Non-CPTP explicit Kraus set.
  EXPECT_THROW(
      KrausChannel::kraus("broken", {Matrix::square(2, {1, 0, 0, 0.5})}),
      Error);
  // Mixed operator shapes.
  EXPECT_THROW(KrausChannel::kraus("broken", {Matrix::identity(2),
                                              Matrix::identity(4)}),
               Error);
  // Pauli probabilities not summing to 1 / out of range.
  EXPECT_THROW(KrausChannel::pauli("p", {{Pauli::I}, {Pauli::X}}, {0.9, 0.3}),
               Error);
  EXPECT_THROW(KrausChannel::pauli("p", {{Pauli::I}, {Pauli::X}}, {1.2, -0.2}),
               Error);
  // Arity mismatch between outcomes.
  EXPECT_THROW(
      KrausChannel::pauli("p", {{Pauli::I}, {Pauli::X, Pauli::Z}}, {0.5, 0.5}),
      Error);
}

TEST(NoiseModel, ValidationErrorPaths) {
  NoiseModel model;
  EXPECT_THROW(model.after_gate("nope", KrausChannel::bit_flip(0.1)), Error);
  EXPECT_THROW(model.on_qubit(-1, KrausChannel::bit_flip(0.1)), Error);
  EXPECT_THROW(model.on_qubit(0, KrausChannel::depolarizing2(0.1)), Error);
  EXPECT_THROW(model.readout_error(0, 1.2, 0.0), Error);
  EXPECT_THROW(model.readout_error_all(0.0, -0.1), Error);
  // A two-qubit channel triggered by a one-qubit gate fails at
  // expansion with the offending gate named.
  NoiseModel bad;
  bad.after_all_gates(KrausChannel::depolarizing2(0.1));
  Circuit c(3);
  c.add(Gate::h(0));
  EXPECT_THROW(bad.sites_for(c), Error);
}

TEST(NoiseModel, SiteExpansionAndReadoutLookup) {
  NoiseModel model;
  model.after_gate("cx", KrausChannel::depolarizing2(0.05))
      .on_qubit(1, KrausChannel::bit_flip(0.02))
      .readout_error_all(0.01, 0.02)
      .readout_error(2, 0.1, 0.2);
  EXPECT_TRUE(model.all_pauli());  // both rules are Pauli
  const Circuit c = test_circuit(3);         // 3 h, 2 cx chain, 3 ry, 1 cx
  const auto sites = model.sites_for(c);
  // cx rule: 3 cx gates; qubit-1 rule: h(1), cx(0,1), cx(1,2), ry(1).
  int cx_sites = 0, q1_sites = 0;
  for (const auto& s : sites) {
    if (s.channel->name() == "depolarizing2") ++cx_sites;
    if (s.channel->name() == "bit_flip") ++q1_sites;
  }
  EXPECT_EQ(cx_sites, 3);
  EXPECT_EQ(q1_sites, 4);
  EXPECT_NEAR(model.readout_for(2).p01, 0.1, 1e-15);   // per-qubit wins
  EXPECT_NEAR(model.readout_for(0).p01, 0.01, 1e-15);  // _all fallback
  EXPECT_TRUE(model.has_readout_error());
}

// --------------------------------------------------------------------------
// Trajectory compilation: the Pauli-twirl sharing property.

TEST(TrajectoryProgram, PauliPathInsertsU3PerSiteQubit) {
  const Circuit c = test_circuit(4);
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.1));
  const TrajectoryProgram prog = TrajectoryProgram::build(c, model);
  ASSERT_TRUE(prog.pauli_fast_path());
  int site_qubits = 0;
  for (const auto& s : prog.sites())
    site_qubits += static_cast<int>(s.qubits.size());
  EXPECT_EQ(prog.twirled().num_gates(), c.num_gates() + site_qubits);
  EXPECT_EQ(static_cast<int>(prog.noise_symbols().size()), 3 * site_qubits);
}

TEST(TrajectoryProgram, GeneralPathSelectedForNonPauli) {
  const Circuit c = test_circuit(3);
  NoiseModel model;
  model.after_all_gates(KrausChannel::amplitude_damping(0.1));
  const TrajectoryProgram prog = TrajectoryProgram::build(c, model);
  EXPECT_FALSE(prog.pauli_fast_path());
  EXPECT_THROW(prog.twirled(), Error);
}

TEST(TrajectoryProgram, OutcomeSamplingIsCounterDeterministic) {
  const Circuit c = test_circuit(4);
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.3));
  const TrajectoryProgram prog = TrajectoryProgram::build(c, model);
  EXPECT_EQ(prog.sample_outcomes(7, 3), prog.sample_outcomes(7, 3));
  EXPECT_NE(prog.sample_outcomes(7, 3), prog.sample_outcomes(7, 4));
  EXPECT_NE(prog.sample_outcomes(8, 3), prog.sample_outcomes(7, 3));
}

// The acceptance-criterion probe: every trajectory of a Pauli-twirled
// batch lowers to a circuit with the *same structural fingerprint*, so
// compiling the batch costs one plan-cache miss and N-1 hits, all
// returning the one shared plan.
TEST(TrajectoryProgram, TrajectoriesShareOnePlanCacheEntry) {
  const int kTrajectories = 16;
  const Circuit c = test_circuit(5);
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.1));
  const TrajectoryProgram prog = TrajectoryProgram::build(c, model);
  ASSERT_TRUE(prog.pauli_fast_path());

  const Session session(shaped(4, 1, 0));
  std::shared_ptr<const exec::ExecutionPlan> shared_plan;
  for (int t = 0; t < kTrajectories; ++t) {
    const CompiledCircuit compiled =
        session.compile(prog.lower(/*seed=*/11, t));
    if (!shared_plan) shared_plan = compiled.plan();
    EXPECT_EQ(compiled.plan().get(), shared_plan.get()) << "trajectory " << t;
  }
  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kTrajectories - 1));
  // The symbolic twirl circuit itself shares the same entry.
  EXPECT_EQ(session.compile(prog.twirled()).plan().get(), shared_plan.get());
}

TEST(TrajectoryProgram, LoweredTrajectoryMatchesReferenceSemantics) {
  // A single lowered trajectory is an ordinary circuit: simulating it
  // must equal the reference simulator on the same gate list.
  const Circuit c = test_circuit(4);
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.25));
  const TrajectoryProgram prog = TrajectoryProgram::build(c, model);
  const Circuit lowered = prog.lower(/*seed=*/3, /*t=*/5);
  const Session session(shaped(3, 1, 0));
  const SimulationResult r = session.simulate(lowered);
  EXPECT_LT(r.state.gather().max_abs_diff(simulate_reference(lowered)), 1e-8);
}

// --------------------------------------------------------------------------
// run_noisy: determinism and aggregation plumbing.

TEST(RunNoisy, DeterministicAcrossDispatchWidths) {
  const Circuit c = test_circuit(4);
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.08));
  model.readout_error_all(0.02, 0.03);
  NoisyRunOptions opts;
  opts.trajectories = 40;
  opts.shots = 16;
  opts.accumulate_probabilities = true;

  SessionConfig cfg1 = shaped(3, 1, 0);
  cfg1.dispatch_threads = 1;
  SessionConfig cfg4 = shaped(3, 1, 0);
  cfg4.dispatch_threads = 4;
  const NoisyResult a = Session(cfg1).run_noisy(c, model, opts);
  const NoisyResult b = Session(cfg4).run_noisy(c, model, opts);
  const NoisyResult a2 = Session(cfg1).run_noisy(c, model, opts);

  ASSERT_EQ(a.trajectories(), 40u);
  EXPECT_TRUE(a.pauli_fast_path());
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.counts(), a2.counts());
  for (Qubit q = 0; q < 4; ++q) {
    EXPECT_EQ(a.expectation_z(q).value, b.expectation_z(q).value) << q;
    EXPECT_EQ(a.expectation_z(q).std_error, b.expectation_z(q).std_error);
  }
  EXPECT_EQ(a.probabilities(), b.probabilities());
}

TEST(RunNoisy, SeedChangesTheSample) {
  const Circuit c = test_circuit(4);
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.2));
  NoisyRunOptions opts;
  opts.trajectories = 30;
  opts.shots = 8;
  const Session session(shaped(3, 1, 0));
  const NoisyResult a = session.run_noisy(c, model, opts);
  opts.seed = 12345;
  const NoisyResult b = session.run_noisy(c, model, opts);
  EXPECT_NE(a.counts(), b.counts());
}

TEST(RunNoisy, OptionValidationAndResultGuards) {
  const Circuit c = test_circuit(4);
  NoiseModel model;
  model.after_all_gates(KrausChannel::bit_flip(0.1));
  const Session session(shaped(3, 1, 0));
  NoisyRunOptions opts;
  opts.trajectories = 0;
  EXPECT_THROW(session.run_noisy(c, model, opts), Error);
  opts.trajectories = 4;
  opts.shots = -1;
  EXPECT_THROW(session.run_noisy(c, model, opts), Error);
  EXPECT_THROW(session.sample_noisy(c, model, 0), Error);

  opts.shots = 0;
  const NoisyResult r = session.run_noisy(c, model, opts);
  EXPECT_THROW(r.probability(0), Error);       // not accumulated
  EXPECT_THROW(r.shot_probability(0), Error);  // no shots drawn
  EXPECT_THROW(r.expectation_z(17), Error);    // qubit out of range
}

TEST(RunNoisy, ParameterizedCircuitBindsThroughOptions) {
  Circuit c(4, "ansatz");
  for (Qubit q = 0; q < 4; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q < 4; ++q)
    c.add(Gate::ry(q, Param::symbol("theta")));
  NoiseModel model;
  model.after_all_gates(KrausChannel::phase_flip(0.05));
  const Session session(shaped(3, 1, 0));
  NoisyRunOptions opts;
  opts.trajectories = 8;
  // Missing binding: the error names the symbol.
  try {
    session.run_noisy(c, model, opts);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("theta"), std::string::npos);
  }
  opts.binding.set("theta", 0.4);
  const NoisyResult r = session.run_noisy(c, model, opts);
  EXPECT_EQ(r.trajectories(), 8u);
}

// --------------------------------------------------------------------------
// Convergence vs the exact density reference, 5-sigma tolerance.

/// |estimate - exact| <= 5 sigma (plus an epsilon for exactly-
/// deterministic estimates whose sample spread is zero).
void expect_within_5_sigma(const Estimate& est, double exact,
                           const std::string& what) {
  EXPECT_LE(std::abs(est.value - exact), 5 * est.std_error + 1e-9)
      << what << ": estimate " << est.value << " +- " << est.std_error
      << " vs exact " << exact;
}

void check_convergence(const Circuit& circuit, const NoiseModel& model,
                       int trajectories, const SessionConfig& cfg,
                       const std::string& what) {
  Session session(cfg);
  NoisyRunOptions opts;
  opts.trajectories = trajectories;
  opts.accumulate_probabilities = true;
  const NoisyResult result = session.run_noisy(circuit, model, opts);
  const DensityMatrix rho = noise::simulate_density(circuit, model);
  for (Qubit q = 0; q < circuit.num_qubits(); ++q)
    expect_within_5_sigma(result.expectation_z(q), rho.expectation_z(q),
                          what + " <Z_" + std::to_string(q) + ">");
  const auto exact = rho.probabilities();
  for (Index i = 0; i < exact.size(); ++i)
    expect_within_5_sigma(result.probability(i), exact[i],
                          what + " p(" + std::to_string(i) + ")");
}

TEST(Convergence, DepolarizingMatchesDensityRef) {
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.06));
  check_convergence(test_circuit(5), model, 1500, shaped(4, 1, 0),
                    "depolarizing");
}

TEST(Convergence, BitFlipMatchesDensityRef) {
  NoiseModel model;
  model.after_all_gates(KrausChannel::bit_flip(0.08));
  check_convergence(test_circuit(4), model, 1500, shaped(3, 1, 0),
                    "bit_flip");
}

TEST(Convergence, PhaseFlipMatchesDensityRef) {
  NoiseModel model;
  model.after_all_gates(KrausChannel::phase_flip(0.1));
  check_convergence(test_circuit(4), model, 1500, shaped(3, 0, 1),
                    "phase_flip");
}

TEST(Convergence, BitPhaseFlipMatchesDensityRef) {
  NoiseModel model;
  model.after_all_gates(KrausChannel::bit_phase_flip(0.07));
  check_convergence(test_circuit(3), model, 1200, shaped(3, 0, 0),
                    "bit_phase_flip");
}

TEST(Convergence, TwoQubitDepolarizingOnEntanglersMatchesDensityRef) {
  NoiseModel model;
  model.after_gate("cx", KrausChannel::depolarizing2(0.1));
  check_convergence(test_circuit(4), model, 1500, shaped(3, 1, 0),
                    "depolarizing2");
}

TEST(Convergence, AmplitudeDampingMatchesDensityRef) {
  // General-Kraus fallback: per-trajectory lowering, norm-tracked
  // weights. Smaller circuit — every trajectory re-plans.
  NoiseModel model;
  model.after_all_gates(KrausChannel::amplitude_damping(0.12));
  const Circuit c = test_circuit(3);
  Session session(shaped(3, 0, 0));
  NoisyRunOptions opts;
  opts.trajectories = 600;
  opts.accumulate_probabilities = true;
  const NoisyResult result = session.run_noisy(c, model, opts);
  EXPECT_FALSE(result.pauli_fast_path());
  // The mean trajectory weight estimates tr(rho) = 1.
  EXPECT_NEAR(result.mean_weight(), 1.0, 0.15);
  const DensityMatrix rho = noise::simulate_density(c, model);
  for (Qubit q = 0; q < 3; ++q)
    expect_within_5_sigma(result.expectation_z(q), rho.expectation_z(q),
                          "amplitude_damping <Z>");
  const auto exact = rho.probabilities();
  for (Index i = 0; i < exact.size(); ++i)
    expect_within_5_sigma(result.probability(i), exact[i],
                          "amplitude_damping p");
}

TEST(Convergence, PhaseDampingMatchesDensityRef) {
  NoiseModel model;
  model.after_all_gates(KrausChannel::phase_damping(0.15));
  const Circuit c = test_circuit(3);
  Session session(shaped(3, 0, 0));
  NoisyRunOptions opts;
  opts.trajectories = 600;
  opts.accumulate_probabilities = true;
  const NoisyResult result = session.run_noisy(c, model, opts);
  const DensityMatrix rho = noise::simulate_density(c, model);
  for (Qubit q = 0; q < 3; ++q)
    expect_within_5_sigma(result.expectation_z(q), rho.expectation_z(q),
                          "phase_damping <Z>");
}

TEST(Convergence, ReadoutErrorMatchesConfusedDensityDiagonal) {
  // Counts (the only observable readout error touches) vs the exact
  // confused diagonal. The 5-sigma bound is conservative: per-state
  // variance is at most p(1-p)/N_traj (between-trajectory spread
  // dominates the within-trajectory multinomial term).
  const Circuit c = test_circuit(3);
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.05));
  model.readout_error_all(0.08, 0.15);
  Session session(shaped(3, 0, 0));
  NoisyRunOptions opts;
  opts.trajectories = 1200;
  const NoisyResult result = session.sample_noisy(c, model, 32, opts);
  const DensityMatrix rho = noise::simulate_density(c, model);
  const auto confused = rho.probabilities_with_readout(model);
  const auto unconfused = rho.probabilities();
  const double n_traj = static_cast<double>(result.trajectories());
  double l1_confused = 0, l1_unconfused = 0;
  for (Index i = 0; i < confused.size(); ++i) {
    const double est = result.shot_probability(i);
    const double sigma =
        std::sqrt(std::max(confused[i] * (1 - confused[i]), 1e-12) / n_traj);
    EXPECT_LE(std::abs(est - confused[i]), 5 * sigma + 1e-9) << "basis " << i;
    l1_confused += std::abs(est - confused[i]);
    l1_unconfused += std::abs(est - unconfused[i]);
  }
  // The estimate must actually reflect the confusion, not just sit
  // within a loose band of both references.
  EXPECT_LT(l1_confused, l1_unconfused);
}

// --------------------------------------------------------------------------
// General-Kraus trajectory plans memoize on the sampled outcome pattern.

TEST(KrausPlanMemo, BatchPlansOncePerDistinctOutcomePattern) {
  // One amplitude-damping site (after the single h) with two Kraus
  // outcomes: a 24-trajectory batch draws at most 2 distinct patterns,
  // so the engine must build at most 2 plans instead of 24.
  NoiseModel model;
  model.after_gate("h", KrausChannel::amplitude_damping(0.3));
  Circuit single(4, "one_h");
  single.add(Gate::h(0));
  for (Qubit q = 0; q + 1 < 4; ++q) single.add(Gate::cx(q, q + 1));
  for (Qubit q = 0; q < 4; ++q) single.add(Gate::ry(q, 0.3 + 0.2 * q));

  const int trajectories = 24;
  const std::uint64_t seed = 17;
  const TrajectoryProgram prog = TrajectoryProgram::build(single, model);
  ASSERT_FALSE(prog.pauli_fast_path());
  ASSERT_EQ(prog.num_sites(), 1);
  std::set<std::vector<int>> distinct;
  for (int t = 0; t < trajectories; ++t)
    distinct.insert(prog.sample_outcomes(seed, t));
  ASSERT_GE(distinct.size(), 2u);  // both outcomes drawn at this seed

  const Session session(shaped(3, 1, 0));
  NoisyRunOptions opts;
  opts.trajectories = trajectories;
  opts.seed = seed;
  // The compile pipeline observes this histogram once per staging run.
  const obs::Histogram& stage_runs =
      obs::histogram(obs::names::kCompileStageUs);
  const std::uint64_t runs_before = stage_runs.count();
  const NoisyResult result = session.run_noisy(single, model, opts);
  EXPECT_EQ(stage_runs.count() - runs_before, distinct.size());
  EXPECT_EQ(result.trajectories(), static_cast<std::uint64_t>(trajectories));

  // Memoized plans change nothing observable: same counts/moments as a
  // single-threaded session.
  SessionConfig ref_cfg = shaped(3, 1, 0);
  ref_cfg.dispatch_threads = 1;
  NoisyRunOptions ref_opts = opts;
  ref_opts.accumulate_probabilities = true;
  NoisyRunOptions par_opts = ref_opts;
  SessionConfig par_cfg = shaped(3, 1, 0);
  par_cfg.dispatch_threads = 4;
  const NoisyResult a = Session(ref_cfg).run_noisy(single, model, ref_opts);
  const NoisyResult b = Session(par_cfg).run_noisy(single, model, par_opts);
  EXPECT_EQ(a.probabilities(), b.probabilities());
  for (Qubit q = 0; q < 4; ++q)
    EXPECT_EQ(a.expectation_z(q).value, b.expectation_z(q).value) << q;
}

// --------------------------------------------------------------------------
// Readout-confusion-corrected query facade.

TEST(CorrectedReadout, GuardsAndPassThrough) {
  const Circuit c = test_circuit(3);
  NoiseModel model;
  model.after_all_gates(KrausChannel::bit_flip(0.05));
  const Session session(shaped(3, 0, 0));
  NoisyRunOptions opts;
  opts.trajectories = 10;
  const NoisyResult no_shots = session.run_noisy(c, model, opts);
  EXPECT_THROW(no_shots.corrected_probability(0), Error);
  EXPECT_THROW(no_shots.corrected_expectation_z(0), Error);

  // Without modeled readout error the corrected queries equal the raw
  // count estimates exactly.
  const NoisyResult plain = session.sample_noisy(c, model, 64, opts);
  EXPECT_TRUE(plain.readout().empty());
  for (Index i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(plain.corrected_probability(i),
                     plain.shot_probability(i))
        << i;

  // A singular confusion matrix (p01 + p10 = 1) cannot be inverted.
  NoiseModel singular;
  singular.after_all_gates(KrausChannel::bit_flip(0.05));
  singular.readout_error(0, 0.4, 0.6);
  const NoisyResult bad = session.sample_noisy(c, singular, 32, opts);
  EXPECT_THROW(bad.corrected_probability(0), Error);
  EXPECT_THROW(bad.corrected_expectation_z(0), Error);
  EXPECT_NO_THROW(bad.corrected_expectation_z(1));  // unmodeled qubit
}

TEST(CorrectedReadout, InverseConfusionRecoversPreReadoutObservables) {
  // Strong readout confusion; the corrected estimates must undo it —
  // land near the *unconfused* density diagonal — while the raw shot
  // estimates stay near the confused one.
  const Circuit c = test_circuit(3);
  NoiseModel model;
  model.after_all_gates(KrausChannel::depolarizing(0.05));
  model.readout_error_all(0.08, 0.15);
  model.readout_error(1, 0.2, 0.05);
  Session session(shaped(3, 0, 0));
  NoisyRunOptions opts;
  opts.trajectories = 1500;
  const NoisyResult result = session.sample_noisy(c, model, 64, opts);
  ASSERT_EQ(result.readout().size(), 3u);

  const DensityMatrix rho = noise::simulate_density(c, model);
  const auto unconfused = rho.probabilities();
  const auto confused = rho.probabilities_with_readout(model);
  double l1_corrected_vs_true = 0, l1_raw_vs_true = 0;
  for (Index i = 0; i < unconfused.size(); ++i) {
    l1_corrected_vs_true +=
        std::abs(result.corrected_probability(i) - unconfused[i]);
    l1_raw_vs_true += std::abs(result.shot_probability(i) - unconfused[i]);
  }
  // The correction strictly improves the estimate of the pre-readout
  // distribution (the confusion here is strong enough that sampling
  // noise cannot flip the comparison at this shot budget).
  EXPECT_LT(l1_corrected_vs_true, l1_raw_vs_true);
  EXPECT_LT(l1_corrected_vs_true, 0.1);

  for (Qubit q = 0; q < 3; ++q) {
    const double exact = rho.expectation_z(q);
    EXPECT_NEAR(result.corrected_expectation_z(q), exact, 0.1) << q;
  }
  // Sanity: the raw counts really are confused (away from exact on at
  // least one qubit), so the agreement above is the correction's work.
  double max_raw_err = 0;
  for (Index i = 0; i < confused.size(); ++i)
    max_raw_err = std::max(
        max_raw_err, std::abs(result.shot_probability(i) - confused[i]));
  EXPECT_LT(max_raw_err, 0.1);  // raw estimates track the confused diagonal
}

}  // namespace
}  // namespace atlas
