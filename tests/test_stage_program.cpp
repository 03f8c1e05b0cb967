// Stage-program pipeline tests: the bind-time compilation layer must be
// invisible to results — distributed execution matches the reference
// simulator across randomized circuits and machine shapes, sweeps stay
// bit-identical to per-binding simulate(), and the dense slot table
// keeps every string-keyed ParamBinding lookup out of the per-point hot
// path (regression-tested through the process-wide lookup probe).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/families.h"
#include "common/bits.h"
#include "core/session.h"
#include "exec/dist_state.h"
#include "exec/stage_program.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "sim/reference.h"

namespace atlas {
namespace {

Circuit make_ansatz(int n, int layers) {
  Circuit c(n, "stage_program_ansatz");
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  for (int l = 0; l < layers; ++l) {
    const Param gamma = Param::symbol("gamma" + std::to_string(l));
    const Param theta = Param::symbol("theta" + std::to_string(l));
    for (Qubit q = 0; q < n; ++q) c.add(Gate::rzz(q, (q + 1) % n, gamma));
    for (Qubit q = 0; q < n; ++q) c.add(Gate::rx(q, theta));
  }
  return c;
}

std::vector<Amp> amplitudes(const SimulationResult& r) {
  return r.state.gather().amplitudes();
}

SessionConfig shaped(int local, int regional, int global) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = 1 << regional;
  return cfg;
}

class StageProgramShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(StageProgramShapeTest, RandomCircuitsMatchReference) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 104729);
  const int local = 4 + static_cast<int>(rng.index(2));     // 4..5
  const int regional = static_cast<int>(rng.index(3));      // 0..2
  const int global = static_cast<int>(rng.index(2));        // 0..1
  const int n = local + regional + global;
  const Circuit c = circuits::random_circuit(n, 40, seed * 37);
  const Session session(shaped(local, regional, global));
  const SimulationResult result = session.simulate(c);
  const StateVector expected = simulate_reference(c);
  EXPECT_LT(result.state.gather().max_abs_diff(expected), 1e-8)
      << "seed " << seed << " shape " << local << "/" << regional << "/"
      << global;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageProgramShapeTest, ::testing::Range(1, 13));

// Directed coverage of every per-shard specialization case: diagonal
// gates restricted by non-local bits, anti-diagonal X/Y flipping the
// shard-id mapping, and controlled gates whose controls live on
// non-local qubits.
TEST(StageProgram, InsularCasesOnNonlocalQubitsMatchReference) {
  const int n = 7;  // 4 local + 2 regional + 1 global
  Circuit c(n, "insular_zoo");
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::x(q));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::y(q));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::rz(q, 0.3 + q));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::cp(q, (q + 3) % n, 0.5 + q));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::crz((q + 2) % n, q, 1.1 * q));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::cx((q + 4) % n, q));
  c.add(Gate::ccz(0, 3, 6));
  c.add(Gate::ccx(5, 6, 0));
  const Session session(shaped(4, 2, 1));
  const SimulationResult result = session.simulate(c);
  EXPECT_LT(result.state.gather().max_abs_diff(simulate_reference(c)), 1e-8);
}

// --- one directed test per shard-specialization case -------------------
// Each runs a circuit as a single stage on 5 qubits with 3 local ones:
// physical order q0 q1 q4 | q2 q3, so q2 is shard bit 0 and q3 shard
// bit 1 (4 shards). Every gate lands in one kernel, fusion and shm in
// turn. The test checks that the compiled skeleton holds the case under
// test, so staging cannot make it vanish, and that the gathered state
// matches the reference simulator from the same initial state.

using Case = exec::StageSkeleton::GateSlot::Case;

constexpr double kCaseTol = 1e-12;

exec::Layout case_layout() {
  const std::vector<Qubit> order = {0, 1, 4, 2, 3};
  exec::Layout l;
  l.num_local = 3;
  l.phys_of_logical.assign(order.size(), -1);
  l.logical_of_phys = order;
  for (int p = 0; p < static_cast<int>(order.size()); ++p)
    l.phys_of_logical[order[static_cast<std::size_t>(p)]] = p;
  return l;
}

struct StageRun {
  exec::StageSkeleton skeleton;
  exec::StageProgram program;
  StateVector state;
};

/// Compiles `c` as one kernel of `type` under case_layout(), runs it on
/// every shard of `initial` and gathers the result, as execute_plan's
/// stage walk does.
StageRun run_as_one_stage(const Circuit& c, kernelize::KernelType type,
                          const StateVector& initial) {
  kernelize::Kernel kernel;
  kernel.type = type;
  for (int i = 0; i < c.num_gates(); ++i) kernel.gate_indices.push_back(i);
  kernelize::Kernelization kernels;
  kernels.kernels.push_back(kernel);
  const exec::Layout layout = case_layout();
  StageRun run;
  run.skeleton = exec::compile_stage_skeleton(c, kernels, layout);
  run.program = exec::bind_stage_program(c, run.skeleton, ParamEnv{});
  exec::DistState state = exec::DistState::scatter(initial, layout);
  std::vector<Amp> scratch;
  for (int s = 0; s < state.num_shards(); ++s)
    exec::run_stage_program(run.program, s, state.shard(s).data(),
                            state.shard_size(), scratch);
  state.layout().shard_xor = run.program.final_xor;
  run.state = state.gather();
  return run;
}

/// The case of each gate of the stage, in gate order.
std::vector<Case> cases_of(const exec::StageSkeleton& skeleton) {
  std::vector<Case> cases;
  for (const auto& kernel : skeleton.kernels)
    for (const auto& slot : kernel.slots) cases.push_back(slot.kind);
  return cases;
}

/// A random state with every amplitude whose qubit q differs from
/// `value` zeroed: it lives only on the shards where q reads `value`.
StateVector random_state_with(Qubit q, bool value, std::uint64_t seed) {
  StateVector sv = StateVector::random(5, seed);
  for (Index i = 0; i < sv.size(); ++i)
    if (test_bit(i, q) != value) sv[i] = Amp(0, 0);
  return sv;
}

const kernelize::KernelType kBothTypes[] = {
    kernelize::KernelType::Fusion, kernelize::KernelType::SharedMemory};

TEST(StageProgramCase, CtrlSkipsShardsWhereNonlocalControlIsZero) {
  Circuit c(5, "ctrl0");
  c.add(Gate::cx(2, 0));
  const StateVector initial = random_state_with(2, false, 11);
  for (const auto type : kBothTypes) {
    const StageRun run = run_as_one_stage(c, type, initial);
    ASSERT_EQ(cases_of(run.skeleton), std::vector<Case>{Case::Ctrl});
    // Pattern 0 (q2 = 0) fires nothing: those shards skip the gate.
    const auto& kernel = run.skeleton.kernels[0];
    ASSERT_EQ(kernel.pattern_bits, std::vector<int>{0});
    EXPECT_TRUE(kernel.variants[0].ops.empty());
    EXPECT_LT(run.state.max_abs_diff(initial), kCaseTol);
    EXPECT_LT(run.state.max_abs_diff(simulate_reference(c, initial)),
              kCaseTol);
  }
}

TEST(StageProgramCase, CtrlDropsNonlocalControlThatIsOne) {
  Circuit c(5, "ctrl1");
  c.add(Gate::cx(2, 0));
  c.add(Gate::ccx(3, 1, 4));  // one local and one non-local control
  const StateVector initial = random_state_with(2, true, 12);
  for (const auto type : kBothTypes) {
    const StageRun run = run_as_one_stage(c, type, initial);
    ASSERT_EQ(cases_of(run.skeleton),
              (std::vector<Case>{Case::Ctrl, Case::Ctrl}));
    // Pattern 1 (q2 = 1, q3 = 0) fires cx alone, as an uncontrolled X.
    const auto& kernel = run.skeleton.kernels[0];
    ASSERT_EQ(kernel.pattern_bits, (std::vector<int>{0, 1}));
    ASSERT_EQ(kernel.variants[1].ops.size(), 1u);
    EXPECT_EQ(kernel.variants[1].ops[0].slot, 0);
    EXPECT_TRUE(kernel.slots[0].controls.empty());
    EXPECT_EQ(kernel.slots[1].controls, std::vector<int>{1});
    EXPECT_LT(run.state.max_abs_diff(simulate_reference(c, initial)),
              kCaseTol);
    EXPECT_GT(run.state.max_abs_diff(initial), 0.01);  // the gate acted
  }
}

TEST(StageProgramCase, DiagRestrictKeepsLocalPartOfDiagonal) {
  Circuit c(5, "diag_restrict");
  c.add(Gate::cp(2, 0, 0.7));
  c.add(Gate::rzz(3, 4, 0.4));
  const StateVector initial = StateVector::random(5, 13);
  for (const auto type : kBothTypes) {
    const StageRun run = run_as_one_stage(c, type, initial);
    ASSERT_EQ(cases_of(run.skeleton),
              (std::vector<Case>{Case::DiagRestrict, Case::DiagRestrict}));
    EXPECT_LT(run.state.max_abs_diff(simulate_reference(c, initial)),
              kCaseTol);
  }
}

TEST(StageProgramCase, DiagScaleWhenEveryQubitIsNonlocal) {
  Circuit c(5, "diag_scale");
  c.add(Gate::cp(2, 3, 0.7));
  c.add(Gate::rz(3, 0.4));
  const StateVector initial = StateVector::random(5, 14);
  for (const auto type : kBothTypes) {
    const StageRun run = run_as_one_stage(c, type, initial);
    ASSERT_EQ(cases_of(run.skeleton),
              (std::vector<Case>{Case::DiagScale, Case::DiagScale}));
    // Only scalars remain: no shard runs a matrix.
    for (const auto& variant : run.skeleton.kernels[0].variants)
      EXPECT_TRUE(variant.ops.empty());
    EXPECT_LT(run.state.max_abs_diff(simulate_reference(c, initial)),
              kCaseTol);
  }
}

TEST(StageProgramCase, AntidiagXFlipsShardMapping) {
  Circuit c(5, "antidiag_x");
  c.add(Gate::x(2));
  c.add(Gate::cp(2, 0, 0.9));  // reads q2 through the flipped mapping
  const StateVector initial = StateVector::random(5, 15);
  for (const auto type : kBothTypes) {
    const StageRun run = run_as_one_stage(c, type, initial);
    ASSERT_EQ(cases_of(run.skeleton),
              (std::vector<Case>{Case::Antidiag, Case::DiagRestrict}));
    EXPECT_EQ(run.program.final_xor, Index{1});
    EXPECT_LT(run.state.max_abs_diff(simulate_reference(c, initial)),
              kCaseTol);
  }
}

TEST(StageProgramCase, AntidiagYScalesShardsByPlusAndMinusI) {
  Circuit c(5, "antidiag_y");
  c.add(Gate::y(2));
  const StateVector initial = StateVector::random(5, 16);
  for (const auto type : kBothTypes) {
    const StageRun run = run_as_one_stage(c, type, initial);
    ASSERT_EQ(cases_of(run.skeleton), std::vector<Case>{Case::Antidiag});
    EXPECT_EQ(run.program.final_xor, Index{1});
    // Y|0> = i|1> and Y|1> = -i|0>: shards that held q2 = 0 pick up +i,
    // those that held q2 = 1 pick up -i.
    const auto& variants = run.program.kernels[0]->variants;
    ASSERT_EQ(variants.size(), 2u);
    EXPECT_EQ(variants[0].scale, Amp(0, 1));
    EXPECT_EQ(variants[1].scale, Amp(0, -1));
    EXPECT_LT(run.state.max_abs_diff(simulate_reference(c, initial)),
              kCaseTol);
  }
}

TEST(StageProgram, SweepBitIdenticalToPerBindingSimulate) {
  const int n = 7, layers = 2, points = 6;
  const Circuit ansatz = make_ansatz(n, layers);
  const Session session(shaped(4, 2, 1));
  const CompiledCircuit compiled = session.compile(ansatz);

  std::vector<ParamBinding> bindings;
  for (int i = 0; i < points; ++i) {
    ParamBinding b;
    for (int l = 0; l < layers; ++l) {
      b.set("gamma" + std::to_string(l), 0.17 * (i + 1) + 0.29 * l);
      b.set("theta" + std::to_string(l), 0.05 * (i + 1) - 0.31 * l);
    }
    bindings.push_back(std::move(b));
  }
  const std::vector<SimulationResult> swept = session.sweep(compiled, bindings);
  ASSERT_EQ(swept.size(), bindings.size());
  for (int i = 0; i < points; ++i) {
    const SimulationResult direct = session.simulate(ansatz.bind(bindings[i]));
    EXPECT_EQ(amplitudes(swept[static_cast<std::size_t>(i)]),
              amplitudes(direct))
        << "point " << i;
  }
}

TEST(StageProgram, DensePointsMatchBindingSweepBitIdentically) {
  const int n = 6, layers = 2, points = 5;
  const Circuit ansatz = make_ansatz(n, layers);
  const Session session(shaped(4, 1, 1));
  const CompiledCircuit compiled = session.compile(ansatz);
  // symbols() is ascending: gamma0, gamma1, theta0, theta1.
  ASSERT_EQ(compiled.symbols(),
            (std::vector<std::string>{"gamma0", "gamma1", "theta0", "theta1"}));

  std::vector<ParamBinding> bindings;
  std::vector<std::vector<double>> dense;
  for (int i = 0; i < points; ++i) {
    const double g0 = 0.11 * i, g1 = 0.23 * i, t0 = 0.37 * i, t1 = 0.41 * i;
    bindings.push_back(ParamBinding{
        {"gamma0", g0}, {"gamma1", g1}, {"theta0", t0}, {"theta1", t1}});
    dense.push_back({g0, g1, t0, t1});
  }
  const auto via_bindings = session.sweep(compiled, bindings);
  const auto via_dense = session.sweep(compiled, dense);
  ASSERT_EQ(via_bindings.size(), via_dense.size());
  for (int i = 0; i < points; ++i)
    EXPECT_EQ(amplitudes(via_bindings[static_cast<std::size_t>(i)]),
              amplitudes(via_dense[static_cast<std::size_t>(i)]))
        << "point " << i;
}

// The slot-table regression: once compiled, a dense-point run performs
// ZERO string-keyed ParamBinding lookups — parameters flow plan-slot ->
// dense table -> array indexing. The named-binding run() performs
// exactly one lookup per free symbol (lowering the user binding into
// the table), independent of gate count and shard count.
TEST(StageProgram, DensePointRunsDoZeroParamBindingLookups) {
  const int n = 6, layers = 2;
  const Circuit ansatz = make_ansatz(n, layers);
  const Session session(shaped(4, 1, 1));
  const CompiledCircuit compiled = session.compile(ansatz);
  const std::vector<double> point = {0.3, 0.7, 1.1, 1.9};
  (void)session.run(compiled, point);  // warm everything once

  const obs::Counter& lookups = obs::counter(obs::names::kIrBindingLookups);
  const std::uint64_t before = lookups.value();
  constexpr int kRuns = 4;
  for (int i = 0; i < kRuns; ++i) (void)session.run(compiled, point);
  EXPECT_EQ(lookups.value() - before, 0u);
}

// The skeleton-cache regression: the binding-independent half of stage
// compilation (pattern bits, fired-gate sets, shm gather maps, fused
// spans) is cached on the plan, so an N-point sweep compiles each
// stage's skeleton exactly once and only re-fills matrix values per
// point. Skeleton builds are read off the skeleton cache's miss counter.
TEST(StageProgram, SweepCompilesEachStageSkeletonOnce) {
  const int n = 7, layers = 2, points = 32;
  const Circuit ansatz = make_ansatz(n, layers);
  const Session session(shaped(4, 2, 1));
  const CompiledCircuit compiled = session.compile(ansatz);
  std::vector<std::vector<double>> dense;
  for (int i = 0; i < points; ++i)
    dense.push_back({0.1 * i, 0.2 * i, 0.3 * i, 0.4 * i});

  const obs::Counter& builds = obs::counter(obs::names::kSkeletonCacheMisses);
  const std::uint64_t before = builds.value();
  (void)session.sweep(compiled, dense);
  const std::uint64_t first_sweep = builds.value() - before;
  EXPECT_EQ(first_sweep, compiled.plan()->stages.size())
      << "expected one skeleton build per stage for the whole sweep";

  // A second sweep over the same compiled handle re-binds values only.
  (void)session.sweep(compiled, dense);
  EXPECT_EQ(builds.value() - before, first_sweep);
}

// Lazily-built SimulationResult::params(): the dense slot record is
// the source of truth; the string-keyed view only materializes on
// demand and matches it.
TEST(StageProgram, ResultParamsBuildLazilyFromSlotValues) {
  const Circuit ansatz = make_ansatz(6, 1);
  const Session session(shaped(4, 1, 1));
  const CompiledCircuit compiled = session.compile(ansatz);
  const SimulationResult r = session.run(compiled, {0.3, 0.9});
  ASSERT_EQ(r.slot_values.size(), compiled.param_slots().size());
  const ParamBinding& named = r.params();
  ASSERT_EQ(named.size(), r.slot_values.size());
  for (std::size_t k = 0; k < r.slot_values.size(); ++k)
    EXPECT_EQ(named.at(slot_symbol_name(static_cast<int>(k))),
              r.slot_values[k]);
  EXPECT_EQ(&named, &r.params());  // cached, not rebuilt
}

TEST(StageProgram, BindingRunsDoOneLookupPerSymbolOnly) {
  const int n = 6, layers = 2;
  const Circuit ansatz = make_ansatz(n, layers);
  const Session session(shaped(4, 1, 1));
  const CompiledCircuit compiled = session.compile(ansatz);
  const ParamBinding binding{
      {"gamma0", 0.3}, {"gamma1", 0.7}, {"theta0", 1.1}, {"theta1", 1.9}};
  (void)session.run(compiled, binding);

  const obs::Counter& lookups = obs::counter(obs::names::kIrBindingLookups);
  const std::uint64_t before = lookups.value();
  constexpr std::uint64_t kRuns = 4;
  for (std::uint64_t i = 0; i < kRuns; ++i) (void)session.run(compiled, binding);
  // One at() per free symbol per run — never per gate, per slot, or per
  // shard (the ansatz has 24 parameterized gates on 4 symbols).
  EXPECT_EQ(lookups.value() - before, kRuns * compiled.symbols().size());
}

}  // namespace
}  // namespace atlas
