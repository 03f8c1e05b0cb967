// The gate-level optimizer and the multi-phase compile pipeline:
// per-pass unit tests (each rewrite exact, global phase included), the
// randomized equivalence property suite across pass combinations /
// gate families / symbolic bindings, the opt_level=0 bit-identity
// regression, post-optimization plan-cache keying (equivalent authored
// circuits share one plan; a 32-point symbolic sweep compiles exactly
// once at opt_level=2), noise-twirl composition, and the per-phase
// diagnostics + dump hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "circuits/families.h"
#include "core/session.h"
#include "noise/channel.h"
#include "noise/density_ref.h"
#include "noise/model.h"
#include "noise/trajectory.h"
#include "opt/pass_manager.h"
#include "opt/rewrite.h"
#include "sim/reference.h"

namespace atlas {
namespace {

SessionConfig shaped(int local, int regional, int global, int opt_level = 0) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = 1 << regional;
  cfg.opt_level = opt_level;
  return cfg;
}

std::vector<Amp> amplitudes(const SimulationResult& r) {
  const StateVector sv = r.state.gather();
  std::vector<Amp> out(sv.size());
  for (Index i = 0; i < sv.size(); ++i) out[i] = sv[i];
  return out;
}

/// Max |a_i - e^{ia} b_i| after aligning b's global phase on a's
/// largest amplitude. The passes are phase-exact, so this is pure
/// roundoff — but the *contract* is equivalence up to global phase.
double phase_aligned_diff(const StateVector& a, const StateVector& b) {
  EXPECT_EQ(a.size(), b.size());
  Index best = 0;
  double mag = 0;
  for (Index i = 0; i < a.size(); ++i)
    if (std::abs(a[i]) > mag) {
      mag = std::abs(a[i]);
      best = i;
    }
  if (std::abs(b[best]) < 1e-12) return 1e9;
  const Amp phase =
      (a[best] / std::abs(a[best])) / (b[best] / std::abs(b[best]));
  double d = 0;
  for (Index i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - phase * b[i]));
  return d;
}

Circuit optimize(const Circuit& c, int level,
                 const std::vector<std::string>& only = {},
                 int num_local = 5) {
  opt::OptOptions o;
  o.level = level;
  o.enable = only;
  opt::PassContext ctx;
  ctx.num_local_qubits = num_local;
  return opt::PassManager(o).run(c, ctx);
}

// --- pass framework -------------------------------------------------------

TEST(PassManager, LevelPresetsAndToggles) {
  EXPECT_TRUE(opt::default_passes(0).empty());
  EXPECT_EQ(opt::default_passes(1).size(), 3u);
  EXPECT_EQ(opt::default_passes(2).size(), 6u);
  EXPECT_THROW(opt::default_passes(3), Error);

  opt::OptOptions o;
  o.level = 2;
  EXPECT_EQ(opt::PassManager(o).pass_names(), opt::default_passes(2));
  o = {};
  o.enable = {"cancel-inverses"};
  EXPECT_EQ(opt::PassManager(o).pass_names(),
            std::vector<std::string>{"cancel-inverses"});
  // Every built-in resolves by name; reorder runs last, after the loop.
  o.enable = {"reorder", "cancel-inverses", "merge-rotations", "block2q",
              "resynth-1q", "drop-identities"};
  EXPECT_EQ(opt::PassManager(o).pass_names(),
            (std::vector<std::string>{"cancel-inverses", "merge-rotations",
                                      "block2q", "resynth-1q",
                                      "drop-identities", "reorder"}));
  o.enable = {"no-such-pass"};
  try {
    opt::PassManager{o};
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-pass"), std::string::npos);
    EXPECT_NE(what.find("block2q"), std::string::npos);  // lists known names
    EXPECT_EQ(e.code(), ErrorCode::not_found);
  }
}

TEST(PassManager, LevelZeroIsAnExactPassThrough) {
  const Circuit c = circuits::random_circuit(5, 40, 7);
  const Circuit oc = optimize(c, 0);
  EXPECT_EQ(oc.fingerprint(), c.fingerprint());
  EXPECT_EQ(oc.num_gates(), c.num_gates());
}

// --- cancel-inverses ------------------------------------------------------

TEST(CancelInverses, AdjacentAndAcrossCommutingDiagonals) {
  Circuit c(2);
  c.add(Gate::h(0));
  c.add(Gate::h(0));          // adjacent pair
  c.add(Gate::s(1));
  c.add(Gate::rz(0, 0.5));
  c.add(Gate::cz(0, 1));      // commutes with both rz's
  c.add(Gate::rz(0, -0.5));   // cancels across the cz
  c.add(Gate::sdg(1));        // cancels s across commuting neighbors
  const Circuit oc = optimize(c, 1);
  ASSERT_EQ(oc.num_gates(), 1);
  EXPECT_EQ(oc.gate(0).kind(), GateKind::CZ);
}

TEST(CancelInverses, SymbolicRotationPairsCancelForAnyBinding) {
  const Param theta = Param::symbol("theta");
  Circuit c(2);
  c.add(Gate::rzz(0, 1, theta));
  c.add(Gate::rzz(1, 0, -theta));  // symmetric qubit order still matches
  c.add(Gate::cx(0, 1));
  c.add(Gate::cx(0, 1));
  EXPECT_EQ(optimize(c, 1).num_gates(), 0);
}

TEST(CancelInverses, NonCommutingBlockerPreservesThePair) {
  Circuit c(1);
  c.add(Gate::h(0));
  c.add(Gate::t(0));  // does not commute with h; blocks the scan
  c.add(Gate::h(0));
  EXPECT_EQ(optimize(c, 1, {}, 1).num_gates(), 3);
}

// --- merge-rotations ------------------------------------------------------

TEST(MergeRotations, AccumulatesAffineExpressionsAcrossCommuters) {
  const Param theta = Param::symbol("theta");
  Circuit c(2);
  c.add(Gate::rz(0, theta));
  c.add(Gate::cx(0, 1));       // rz rides the control side
  c.add(Gate::rz(0, 2.0 * theta + 0.25));
  const Circuit oc = optimize(c, 1);
  ASSERT_EQ(oc.num_gates(), 2);
  EXPECT_EQ(oc.gate(0).kind(), GateKind::RZ);
  EXPECT_EQ(oc.gate(0).param(0), 3.0 * theta + 0.25);
}

TEST(MergeRotations, ZeroSumDropsTheGateEntirely) {
  Circuit c(2);
  c.add(Gate::crx(0, 1, 0.7));
  c.add(Gate::crx(0, 1, -0.7));
  c.add(Gate::cp(0, 1, 0.3));
  c.add(Gate::cp(1, 0, 0.4));  // cp is qubit-symmetric
  const Circuit oc = optimize(c, 1);
  ASSERT_EQ(oc.num_gates(), 1);
  EXPECT_EQ(oc.gate(0).kind(), GateKind::CP);
  EXPECT_EQ(oc.gate(0).param(0), Param(0.7));
}

// --- block2q --------------------------------------------------------------

TEST(Block2q, CxRzCxBecomesRzzSymbolically) {
  const Param theta = Param::symbol("theta");
  Circuit c(2);
  c.add(Gate::cx(0, 1));
  c.add(Gate::rz(1, theta));
  c.add(Gate::cx(0, 1));
  const Circuit oc = optimize(c, 2);
  ASSERT_EQ(oc.num_gates(), 1);
  EXPECT_EQ(oc.gate(0).kind(), GateKind::RZZ);
  EXPECT_EQ(oc.gate(0).param(0), theta);
  // Exactness at a binding (global phase included -> max_abs_diff).
  const ParamBinding b{{"theta", 0.83}};
  EXPECT_LT(simulate_reference(oc.bind(b))
                .max_abs_diff(simulate_reference(c.bind(b))),
            1e-12);
}

TEST(Block2q, ConstantMiddlesFoldToOneInsularDiagonal) {
  Circuit c(3);
  c.add(Gate::h(0));  // populate amplitudes
  c.add(Gate::h(1));
  c.add(Gate::cx(0, 1));
  c.add(Gate::s(1));
  c.add(Gate::p(1, 0.4));
  c.add(Gate::cx(0, 1));
  const Circuit oc = optimize(c, 2);
  // h h + one two-qubit diagonal Unitary.
  ASSERT_EQ(oc.num_gates(), 3);
  EXPECT_EQ(oc.gate(2).kind(), GateKind::Unitary);
  EXPECT_TRUE(oc.gate(2).fully_diagonal());
  EXPECT_TRUE(oc.gate(2).non_insular_qubits().empty());
  EXPECT_LT(simulate_reference(oc).max_abs_diff(simulate_reference(c)),
            1e-12);
}

TEST(Block2q, SymbolicPhaseMiddleLowersToInsularTriple) {
  const Param x = Param::symbol("x");
  Circuit c(2);
  c.add(Gate::h(0));
  c.add(Gate::h(1));
  c.add(Gate::cx(0, 1));
  c.add(Gate::p(1, x));
  c.add(Gate::cx(0, 1));
  const Circuit oc = optimize(c, 2);
  ASSERT_EQ(oc.num_gates(), 5);  // count-neutral, but every gate insular
  for (int i = 2; i < 5; ++i)
    EXPECT_TRUE(oc.gate(i).non_insular_qubits().empty()) << i;
  const ParamBinding b{{"x", 1.9}};
  EXPECT_LT(simulate_reference(oc.bind(b))
                .max_abs_diff(simulate_reference(c.bind(b))),
            1e-12);
}

// --- resynth-1q / drop-identities ----------------------------------------

TEST(Resynth1q, ConstantRunCollapsesToOneExactGate) {
  Circuit c(2);
  c.add(Gate::h(0));
  c.add(Gate::s(0));
  c.add(Gate::cx(1, 0));  // breaks the run on qubit 0
  c.add(Gate::t(0));
  c.add(Gate::rx(0, 0.3));
  c.add(Gate::ry(0, -0.9));
  const Circuit oc = optimize(c, 2, {}, 1);
  ASSERT_EQ(oc.num_gates(), 3);
  EXPECT_EQ(oc.gate(0).kind(), GateKind::Unitary);
  EXPECT_EQ(oc.gate(2).kind(), GateKind::Unitary);
  EXPECT_LT(simulate_reference(oc).max_abs_diff(simulate_reference(c)),
            1e-12);  // exact: no global phase dropped
}

TEST(Resynth1q, SymbolicGatesBreakRuns) {
  Circuit c(1);
  c.add(Gate::h(0));
  c.add(Gate::rz(0, Param::symbol("a")));
  c.add(Gate::h(0));
  EXPECT_EQ(optimize(c, 2, {}, 1).num_gates(), 3);
}

TEST(DropIdentities, ExactIdentitiesVanishPhasesStay) {
  Circuit c(2);
  c.add(Gate::rx(0, 0.0));
  c.add(Gate::cp(0, 1, 0.0));
  c.add(Gate::u3(1, 0.0, 0.0, 0.0));
  c.add(Gate::unitary({0}, Matrix::identity(2)));
  EXPECT_EQ(optimize(c, 1).num_gates(), 0);

  // A scalar e^{ia} I gate is NOT identity under the exact contract...
  Matrix phase = Matrix::identity(2);
  phase(0, 0) = phase(1, 1) = Amp(0, 1);
  Circuit ph(1);
  ph.add(Gate::unitary({0}, phase));
  EXPECT_EQ(optimize(ph, 1).num_gates(), 1);
  // ...but drops when the caller opts into ray equivalence.
  opt::OptOptions o;
  o.level = 1;
  o.pass.up_to_global_phase = true;
  opt::PassContext ctx;
  EXPECT_EQ(opt::PassManager(o).run(ph, ctx).num_gates(), 0);
}

// --- reorder --------------------------------------------------------------

TEST(Reorder, NeverWorsensAndSometimesWinsStages) {
  // The commutation-relaxed schedule may regroup gates; the pass keeps
  // its candidate only when the staging proxy strictly improves, so
  // session-level stage counts can only go down.
  const Session s0(shaped(5, 2, 3, /*opt_level=*/0));
  const Session s2(shaped(5, 2, 3, /*opt_level=*/2));
  bool improved = false;
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const Circuit c = circuits::random_circuit(10, 80, seed);
    const std::size_t st0 = s0.compile(c).plan()->stages.size();
    const std::size_t st2 = s2.compile(c).plan()->stages.size();
    EXPECT_LE(st2, st0) << "seed " << seed;
    improved = improved || st2 < st0;
  }
  EXPECT_TRUE(improved);
}

TEST(Reorder, PreservesTheOperatorExactly) {
  for (std::uint64_t seed : {11, 12, 13}) {
    const Circuit c = circuits::random_circuit(7, 60, seed);
    const Circuit oc = optimize(c, 0, {"reorder"}, 3);
    EXPECT_EQ(oc.num_gates(), c.num_gates());
    EXPECT_LT(simulate_reference(oc).max_abs_diff(simulate_reference(c)),
              1e-10)
        << "seed " << seed;
  }
}

// --- randomized equivalence property suite --------------------------------

/// Symbolizes ~30% of rotation parameters (plain symbols and affine
/// combinations), returning the rewritten circuit and the binding that
/// reproduces the original values.
Circuit symbolize(const Circuit& c, std::uint64_t seed, ParamBinding& binding) {
  Rng rng(seed);
  Circuit out(c.num_qubits(), c.name());
  int next = 0;
  for (const Gate& g : c.gates()) {
    if (g.params().empty() || rng.uniform() > 0.3) {
      out.add(g);
      continue;
    }
    std::vector<Param> params;
    for (const Param& p : g.params()) {
      if (!p.is_constant()) {
        params.push_back(p);
        continue;
      }
      // Built by append to dodge GCC 12's -Wrestrict false positive on
      // literal + rvalue-string concatenation (see slot_symbol_name).
      std::string name = "s";
      name += std::to_string(next++);
      if (rng.uniform() < 0.5) {
        binding.set(name, p.constant_term());
        params.push_back(Param::symbol(name));
      } else {
        // value = 2 * sym + 0.125 -> sym = (value - 0.125) / 2.
        binding.set(name, (p.constant_term() - 0.125) / 2.0);
        params.push_back(2.0 * Param::symbol(name) + 0.125);
      }
    }
    out.add(g.with_params(std::move(params)));
  }
  return out;
}

TEST(OptimizerProperty, EquivalentAcrossPassCombinationsAndBindings) {
  const std::vector<std::vector<std::string>> combos = {
      {"cancel-inverses"},
      {"merge-rotations"},
      {"block2q"},
      {"resynth-1q"},
      {"drop-identities"},
      {"reorder"},
      {"cancel-inverses", "merge-rotations", "drop-identities"},
      {"merge-rotations", "block2q", "resynth-1q"},
      {"cancel-inverses", "merge-rotations", "block2q", "resynth-1q",
       "drop-identities", "reorder"},
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Circuit concrete = circuits::random_circuit(6, 40, 100 + seed);
    const StateVector expected = simulate_reference(concrete);
    ParamBinding binding;
    const Circuit symbolic = symbolize(concrete, 200 + seed, binding);
    for (std::size_t ci = 0; ci < combos.size(); ++ci) {
      const Circuit oc = optimize(symbolic, 0, combos[ci], 3);
      EXPECT_LE(oc.num_gates(), concrete.num_gates());
      const Circuit bound = oc.bind(binding);
      EXPECT_LT(phase_aligned_diff(expected, simulate_reference(bound)),
                1e-8)
          << "seed " << seed << " combo " << ci;
    }
    // Full level presets over the same instances.
    for (int level : {1, 2}) {
      const Circuit oc = optimize(symbolic, level);
      EXPECT_LT(phase_aligned_diff(expected,
                                   simulate_reference(oc.bind(binding))),
                1e-8)
          << "seed " << seed << " level " << level;
    }
  }
}

TEST(OptimizerProperty, FamiliesStayEquivalentAtLevel2) {
  for (const std::string& name : circuits::family_names()) {
    const Circuit c = circuits::make_family(name, 8);
    const Circuit oc = optimize(c, 2);
    EXPECT_LE(oc.num_gates(), c.num_gates()) << name;
    EXPECT_LT(phase_aligned_diff(simulate_reference(c),
                                 simulate_reference(oc)),
              1e-8)
        << name;
  }
}

// --- opt_level=0 bit-identity regression ----------------------------------

TEST(OptLevelZero, BitIdenticalToTheValueKeyedPlanPath) {
  // The refactored pipeline at opt_level 0 must execute the exact
  // physics of the pre-optimizer engine: the canonical slot plan of
  // compile()+run() replays bit-for-bit against the legacy
  // value-embedded plan() + execute() pipeline.
  const Session session(shaped(4, 1, 1));
  const Circuit c = circuits::ising(6);
  const SimulationResult via_simulate = session.simulate(c);
  const auto plan = session.plan(c);
  exec::DistState state = session.executor().initial_state(*plan,
                                                           session.cluster());
  session.execute(*plan, state);
  EXPECT_EQ(via_simulate.state.gather().amplitudes(),
            state.gather().amplitudes());
  // And the handle reports a pass-through compile.
  const CompiledCircuit compiled = session.compile(c);
  EXPECT_EQ(compiled.optimized_circuit().fingerprint(), c.fingerprint());
  EXPECT_EQ(compiled.diagnostics().opt.gates_before,
            compiled.diagnostics().opt.gates_after);
}

// --- post-optimization plan-cache keying ----------------------------------

TEST(PlanKeying, EquivalentAuthoredCircuitsShareOnePlan) {
  const Session session(shaped(4, 1, 1, /*opt_level=*/2));
  Circuit split(6), merged(6);
  for (Qubit q = 0; q < 6; ++q) {
    split.add(Gate::h(q));
    split.add(Gate::rz(q, 0.3));
    split.add(Gate::rz(q, 0.4));  // merges into one rz
  }
  for (Qubit q = 0; q < 6; ++q) {
    merged.add(Gate::h(q));
    merged.add(Gate::rz(q, 0.7));
  }
  EXPECT_EQ(session.plan_key(split), session.plan_key(merged));
  const CompiledCircuit a = session.compile(split);
  const CompiledCircuit b = session.compile(merged);
  EXPECT_EQ(a.plan().get(), b.plan().get());
  EXPECT_EQ(session.plan_cache_stats().misses, 1u);
  EXPECT_EQ(session.plan_cache_stats().hits, 1u);
  // Same physics, different slot expressions per handle.
  EXPECT_EQ(amplitudes(session.run(a)), amplitudes(session.run(b)));
}

/// A 6-qubit two-symbol ansatz with real optimization surface: mergeable
/// rz pairs and CX-conjugated rz blocks.
Circuit opt_ansatz() {
  const Param theta = Param::symbol("theta");
  const Param gamma = Param::symbol("gamma");
  Circuit c(6, "opt_ansatz");
  for (Qubit q = 0; q < 6; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q < 6; ++q) {
    c.add(Gate::rz(q, theta));
    c.add(Gate::rz(q, 0.5 * gamma));  // merges with the previous rz
  }
  for (Qubit q = 0; q + 1 < 6; ++q) {
    c.add(Gate::cx(q, q + 1));
    c.add(Gate::rz(q + 1, gamma));    // block2q -> rzz
    c.add(Gate::cx(q, q + 1));
  }
  for (Qubit q = 0; q < 6; ++q) c.add(Gate::rx(q, theta));
  return c;
}

TEST(PlanKeying, SymbolicSweepAtLevel2CompilesExactlyOnePlan) {
  SessionConfig cfg = shaped(4, 1, 1, /*opt_level=*/2);
  cfg.dispatch_threads = 4;
  const Session session(cfg);
  const Circuit ansatz = opt_ansatz();
  const CompiledCircuit compiled = session.compile(ansatz);
  // The optimizer shrank the structure and the slot table follows the
  // optimized circuit.
  EXPECT_LT(compiled.optimized_circuit().num_gates(), ansatz.num_gates());
  EXPECT_EQ(compiled.symbols(),
            (std::vector<std::string>{"gamma", "theta"}));

  std::vector<ParamBinding> bindings;
  for (int i = 0; i < 32; ++i)
    bindings.push_back(ParamBinding{}
                           .set("theta", 0.07 * i - 1.0)
                           .set("gamma", 0.9 - 0.05 * i));
  const auto results = session.sweep(compiled, bindings);
  EXPECT_EQ(session.plan_cache_stats().misses, 1u);
  ASSERT_EQ(results.size(), bindings.size());
  for (std::size_t i : {std::size_t{0}, std::size_t{17}, std::size_t{31}}) {
    EXPECT_LT(phase_aligned_diff(
                  simulate_reference(ansatz.bind(bindings[i])),
                  results[i].state.gather()),
              1e-8)
        << "point " << i;
  }
}

// --- noise-twirl composition ----------------------------------------------

TEST(NoiseCompose, TwirlBatchStillSharesOnePlanAtLevel2) {
  Circuit c(5, "noisy_opt");
  for (Qubit q = 0; q < 5; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q + 1 < 5; ++q) c.add(Gate::cx(q, q + 1));
  for (Qubit q = 0; q < 5; ++q) c.add(Gate::ry(q, 0.2 + 0.1 * q));
  noise::NoiseModel model;
  model.after_all_gates(noise::KrausChannel::depolarizing(0.05));

  // Non-const: clear_plan_cache() below mutates observable state.
  Session session(shaped(4, 1, 0, /*opt_level=*/2));
  const noise::TrajectoryProgram prog =
      noise::TrajectoryProgram::build(c, model);
  ASSERT_TRUE(prog.pauli_fast_path());
  // The twirl slot-gates are symbolic, so the optimizer leaves them in
  // place and every compile of the twirled circuit shares one entry.
  std::shared_ptr<const exec::ExecutionPlan> shared_plan;
  for (int i = 0; i < 8; ++i) {
    const CompiledCircuit compiled = session.compile(prog.twirled());
    if (!shared_plan) shared_plan = compiled.plan();
    EXPECT_EQ(compiled.plan().get(), shared_plan.get()) << i;
  }
  EXPECT_EQ(session.plan_cache_stats().misses, 1u);
  EXPECT_EQ(session.plan_cache_stats().hits, 7u);

  // End to end: a run_noisy batch on the optimizing session plans once
  // and still converges on the exact density reference.
  session.clear_plan_cache();
  const std::uint64_t misses_before = session.plan_cache_stats().misses;
  noise::NoisyRunOptions opts;
  opts.trajectories = 800;
  const noise::NoisyResult est = session.run_noisy(c, model, opts);
  EXPECT_EQ(session.plan_cache_stats().misses, misses_before + 1);
  const noise::DensityMatrix rho = noise::simulate_density(c, model);
  for (Qubit q = 0; q < 5; ++q) {
    const noise::Estimate z = est.expectation_z(q);
    EXPECT_LE(std::abs(z.value - rho.expectation_z(q)),
              5 * z.std_error + 1e-9)
        << q;
  }
}

// --- diagnostics ----------------------------------------------------------

std::vector<std::string> phase_names(const CompileDiagnostics& diag) {
  std::vector<std::string> names;
  for (const CompilePhaseTiming& p : diag.phases) names.push_back(p.phase);
  return names;
}

TEST(Pipeline, DiagnosticsRecordEveryPhase) {
  const Session session(shaped(4, 1, 1, /*opt_level=*/2));
  const Circuit c = circuits::ising(6);

  const CompiledCircuit cold = session.compile(c);
  const CompileDiagnostics& diag = cold.diagnostics();
  ASSERT_EQ(phase_names(diag),
            (std::vector<std::string>{"optimize", "canonicalize", "stage",
                                      "kernelize", "program"}));
  EXPECT_FALSE(diag.plan_cached);
  EXPECT_EQ(diag.phases[0].gates_in, c.num_gates());
  EXPECT_LT(diag.phases[0].gates_out, c.num_gates());  // ising shrinks
  EXPECT_EQ(diag.num_stages, cold.plan()->stages.size());
  EXPECT_GT(diag.opt.gates_before, diag.opt.gates_after);
  EXPECT_FALSE(diag.opt.passes.empty());
  for (const CompilePhaseTiming& p : diag.phases)
    EXPECT_GE(p.seconds, 0.0) << p.phase;

  // A cache hit skips stage/kernelize and says so.
  const CompiledCircuit warm = session.compile(c);
  EXPECT_EQ(phase_names(warm.diagnostics()),
            (std::vector<std::string>{"optimize", "canonicalize", "program"}));
  EXPECT_TRUE(warm.diagnostics().plan_cached);
  EXPECT_EQ(warm.plan().get(), cold.plan().get());
}

TEST(Pipeline, InvalidHandleGuardsNewAccessors) {
  const CompiledCircuit invalid;
  EXPECT_THROW(invalid.optimized_circuit(), Error);
  EXPECT_THROW(invalid.diagnostics(), Error);
}

TEST(Pipeline, OptLevelValidated) {
  SessionConfig cfg = shaped(4, 1, 1);
  cfg.opt_level = 3;
  EXPECT_THROW(Session{cfg}, Error);
  cfg.opt_level = -1;
  EXPECT_THROW(Session{cfg}, Error);
}

}  // namespace
}  // namespace atlas
