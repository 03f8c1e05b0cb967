// Session API tests: backend registries (built-ins, custom engines,
// unknown names), construction-time config validation, plan-cache
// behavior (hits, eviction, disabling), legacy-Simulator equivalence,
// and concurrent submit() determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "circuits/families.h"
#include "core/atlas.h"
#include "kernelize/ordered.h"
#include "staging/snuqs.h"

namespace atlas {
namespace {

SessionConfig small_config(int local = 5, int regional = 1, int global = 1) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = regional;
  cfg.cluster.global_qubits = global;
  cfg.cluster.gpus_per_node = 1 << regional;
  cfg.cluster.num_threads = 2;
  return cfg;
}

std::vector<Amp> amplitudes(const exec::DistState& state) {
  const StateVector sv = state.gather();
  std::vector<Amp> out(sv.size());
  for (Index i = 0; i < sv.size(); ++i) out[i] = sv[i];
  return out;
}

std::vector<Amp> amplitudes(const SimulationResult& r) {
  return amplitudes(r.state);
}

// --- registries ---------------------------------------------------------

TEST(Registry, BuiltinsRegistered) {
  for (const char* name : {"ilp", "bnb", "snuqs", "auto"})
    EXPECT_TRUE(staging::stager_registry().contains(name)) << name;
  for (const char* name : {"dp", "ordered", "greedy", "best"})
    EXPECT_TRUE(kernelize::kernelizer_registry().contains(name)) << name;
  // Only concrete backends: "auto" is resolved by exec::make_executor.
  EXPECT_EQ(exec::executor_registry().names(),
            (std::vector<std::string>{"device", "inmemory"}));
}

TEST(Registry, UnknownNameThrowsListingRegistered) {
  try {
    staging::stager_registry().create("no-such-engine");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-engine"), std::string::npos);
    EXPECT_NE(what.find("bnb"), std::string::npos);  // lists known names
    EXPECT_EQ(e.code(), ErrorCode::not_found);
  }
}

TEST(Registry, SessionRejectsUnknownBackendNames) {
  SessionConfig cfg = small_config();
  cfg.stager = "no-such-stager";
  EXPECT_THROW(Session{cfg}, Error);
  cfg = small_config();
  cfg.kernelizer = "no-such-kernelizer";
  EXPECT_THROW(Session{cfg}, Error);
  cfg = small_config();
  cfg.executor = "no-such-executor";
  EXPECT_THROW(Session{cfg}, Error);
}

TEST(Registry, DuplicateRegistrationThrows) {
  EXPECT_THROW(
      staging::stager_registry().add("bnb", [] {
        return std::shared_ptr<staging::Stager>();
      }),
      Error);
}

std::atomic<int> counting_stager_calls{0};
std::atomic<int> counting_kernelizer_calls{0};

class CountingStager final : public staging::Stager {
 public:
  std::string name() const override { return "test-counting"; }
  staging::StagedCircuit stage(const Circuit& circuit,
                               const staging::MachineShape& shape,
                               const staging::StagingOptions&) const override {
    ++counting_stager_calls;
    return staging::stage_with_snuqs(circuit, shape);
  }
};

class CountingKernelizer final : public kernelize::Kernelizer {
 public:
  std::string name() const override { return "test-counting"; }
  kernelize::Kernelization kernelize(
      const Circuit& circuit, const kernelize::CostModel& model,
      const kernelize::DpOptions&) const override {
    ++counting_kernelizer_calls;
    return kernelize::kernelize_ordered(circuit, model);
  }
};

TEST(Registry, CustomBackendsDriveASession) {
  staging::stager_registry().add(
      "test-counting", [] { return std::make_shared<CountingStager>(); });
  kernelize::kernelizer_registry().add(
      "test-counting", [] { return std::make_shared<CountingKernelizer>(); });

  SessionConfig cfg = small_config();
  cfg.stager = "test-counting";
  cfg.kernelizer = "test-counting";
  Session session(cfg);
  EXPECT_EQ(session.stager().name(), "test-counting");

  const Circuit c = circuits::qft(7);
  const SimulationResult custom = session.simulate(c);
  EXPECT_GT(counting_stager_calls.load(), 0);
  EXPECT_GT(counting_kernelizer_calls.load(), 0);

  // A different planning pipeline must still produce the same state.
  const Session reference(small_config());
  EXPECT_EQ(amplitudes(custom), amplitudes(reference.simulate(c)));
}

// --- config validation --------------------------------------------------

TEST(SessionConfigValidation, RejectsBadClusterShapes) {
  SessionConfig cfg = small_config();
  cfg.cluster.regional_qubits = -1;
  EXPECT_THROW(Session{cfg}, Error);

  cfg = small_config();
  cfg.cluster.local_qubits = -3;
  EXPECT_THROW(Session{cfg}, Error);

  cfg = small_config();
  cfg.cluster.gpus_per_node = 4;  // > 2^regional_qubits = 2
  try {
    Session session(cfg);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("gpus_per_node"), std::string::npos);
  }

  // Negative thread counts must fail fast instead of wrapping around to
  // a huge unsigned pool size.
  cfg = small_config();
  cfg.cluster.num_threads = -2;
  EXPECT_THROW(Session{cfg}, Error);

  cfg = small_config();
  cfg.dispatch_threads = -1;
  EXPECT_THROW(Session{cfg}, Error);
}

TEST(SessionConfigValidation, RejectsBadOptionRanges) {
  SessionConfig cfg = small_config();
  cfg.kernelize.prune_threshold = 0;
  EXPECT_THROW(Session{cfg}, Error);

  cfg = small_config();
  cfg.staging.bnb.beam_width = 0;
  EXPECT_THROW(Session{cfg}, Error);

  cfg = small_config();
  cfg.stage_cost_factor = -1;
  EXPECT_THROW(Session{cfg}, Error);
}

// --- plan cache ---------------------------------------------------------

TEST(PlanCache, SecondPlanOfIdenticalCircuitHits) {
  const Session session(small_config());
  const Circuit c = circuits::qft(7);
  const auto p1 = session.plan(c);
  const auto p2 = session.plan(c);
  EXPECT_EQ(p1.get(), p2.get());  // literally the same plan object

  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);

  // A structurally identical rebuild (different name) also hits.
  Circuit c2 = circuits::qft(7);
  c2.set_name("renamed");
  session.plan(c2);
  EXPECT_EQ(session.plan_cache_stats().hits, 2u);
}

TEST(PlanCache, DistinctCircuitsMissAndLruEvicts) {
  SessionConfig cfg = small_config();
  cfg.plan_cache_capacity = 1;
  const Session session(cfg);
  session.plan(circuits::qft(7));
  session.plan(circuits::ghz(7));      // evicts the qft plan
  session.plan(circuits::qft(7));      // cold again
  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(PlanCache, ZeroCapacityDisablesCaching) {
  SessionConfig cfg = small_config();
  cfg.plan_cache_capacity = 0;
  const Session session(cfg);
  const Circuit c = circuits::ising(7);
  const auto p1 = session.plan(c);
  const auto p2 = session.plan(c);
  EXPECT_NE(p1.get(), p2.get());
  EXPECT_EQ(session.plan_cache_stats().hits, 0u);
}

TEST(PlanCache, ClearResetsEntries) {
  Session session(small_config());  // clear_plan_cache() is non-const
  const Circuit c = circuits::qft(7);
  session.plan(c);
  session.clear_plan_cache();
  EXPECT_EQ(session.plan_cache_stats().size, 0u);
  session.plan(c);
  EXPECT_EQ(session.plan_cache_stats().misses, 2u);
}

TEST(Fingerprint, StructuralNotNominal) {
  Circuit a = circuits::qft(7);
  Circuit b = circuits::qft(7);
  b.set_name("other");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), circuits::qft(6).fingerprint());

  Circuit p1(2), p2(2);
  p1.add(Gate::rz(0, 0.25));
  p2.add(Gate::rz(0, 0.50));
  EXPECT_NE(p1.fingerprint(), p2.fingerprint());
}

// --- equivalence and concurrency ----------------------------------------

TEST(Session, MatchesLegacySimulatorOnThreeFamilies) {
  const SessionConfig cfg = small_config();
  const Session session(cfg);
  const Simulator simulator{SimulatorConfig(cfg)};
  for (const Circuit& c :
       {circuits::qft(7), circuits::ghz(7), circuits::ising(7)}) {
    EXPECT_EQ(amplitudes(session.simulate(c)),
              amplitudes(simulator.simulate(c)))
        << c.name();
  }
}

TEST(Session, SubmitMatchesSynchronousSimulate) {
  const Session session(small_config());
  const Circuit c = circuits::wstate(7);
  auto future = session.submit(c);
  EXPECT_EQ(amplitudes(future.get()), amplitudes(session.simulate(c)));
}

TEST(Session, SubmitPropagatesErrors) {
  const Session session(small_config());
  auto future = session.submit(circuits::qft(9));  // wrong qubit count
  EXPECT_THROW(future.get(), Error);
}

TEST(Session, ConcurrentSubmitFromManyThreadsIsBitIdentical) {
  SessionConfig cfg = small_config();
  cfg.dispatch_threads = 4;
  const Session session(cfg);

  const std::vector<Circuit> jobs = {
      circuits::qft(7),   circuits::ghz(7),    circuits::ising(7),
      circuits::dj(7),    circuits::wstate(7), circuits::qft(7),
      circuits::qsvm(7),  circuits::ghz(7)};

  // Sequential ground truth through the legacy shim.
  const Simulator simulator{SimulatorConfig(cfg)};
  std::vector<std::vector<Amp>> expected;
  for (const Circuit& c : jobs) expected.push_back(amplitudes(simulator.simulate(c)));

  // Four caller threads race submissions into the session.
  std::vector<std::future<SimulationResult>> futures(jobs.size());
  {
    std::vector<std::thread> callers;
    std::atomic<std::size_t> next{0};
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= jobs.size()) break;
          futures[i] = session.submit(jobs[i]);
        }
      });
    }
    for (auto& th : callers) th.join();
  }
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(amplitudes(futures[i].get()), expected[i]) << jobs[i].name();

  // Racing duplicates may each build cold, but once the dust settles
  // every one of the four distinct structures is cached: re-compiling
  // the full job list must be all hits (simulate()/submit() cache
  // under compile()'s structural keys).
  const std::uint64_t hits_before = session.plan_cache_stats().hits;
  for (const Circuit& c : jobs) session.compile(c);
  EXPECT_EQ(session.plan_cache_stats().hits, hits_before + jobs.size());
}

TEST(Session, SimulateBatchAlignsResults) {
  const Session session(small_config());
  std::vector<Circuit> batch = {circuits::qft(7), circuits::ghz(7)};
  const auto results = session.simulate_batch(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(amplitudes(results[0]),
            amplitudes(session.simulate(circuits::qft(7))));
  EXPECT_EQ(amplitudes(results[1]),
            amplitudes(session.simulate(circuits::ghz(7))));
}

// --- compile-once / bind-many -------------------------------------------

/// A 7-qubit two-symbol variational ansatz (theta: mixer angles,
/// gamma: entangler angles) matching small_config()'s cluster.
Circuit sweep_ansatz(int n = 7) {
  Circuit c(n, "sweep_ansatz");
  const Param theta = Param::symbol("theta");
  const Param gamma = Param::symbol("gamma");
  for (Qubit q = 0; q < n; ++q) c.add(Gate::h(q));
  for (Qubit q = 0; q + 1 < n; ++q) c.add(Gate::rzz(q, q + 1, gamma));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::rx(q, theta));
  for (Qubit q = 0; q + 1 < n; ++q) c.add(Gate::rzz(q, q + 1, 0.5 * gamma));
  for (Qubit q = 0; q < n; ++q) c.add(Gate::rx(q, theta + 0.1));
  return c;
}

TEST(CompiledCircuit, HandleExposesSymbolsAndSlotTable) {
  const Session session(small_config());
  const Circuit c = sweep_ansatz();
  const CompiledCircuit compiled = session.compile(c);
  ASSERT_TRUE(compiled.valid());
  EXPECT_EQ(compiled.symbols(), (std::vector<std::string>{"gamma", "theta"}));
  EXPECT_TRUE(compiled.is_parameterized());
  EXPECT_EQ(compiled.num_qubits(), 7);
  // One slot per rotation parameter: 2*(7-1) rzz + 2*7 rx.
  EXPECT_EQ(compiled.param_slots().size(), 26u);
  EXPECT_EQ(compiled.plan_key(), session.plan_key(c));
  // The handle keeps the *user* expressions, not the slot symbols.
  EXPECT_EQ(compiled.param_slots().front().expr,
            Param::symbol("gamma"));
}

TEST(CompiledCircuit, RunMatchesSimulateOfBoundCircuit) {
  const Session session(small_config());
  const CompiledCircuit compiled = session.compile(sweep_ansatz());
  const ParamBinding binding{{"theta", 0.37}, {"gamma", -1.2}};
  const SimulationResult via_run = session.run(compiled, binding);
  const SimulationResult via_simulate =
      session.simulate(sweep_ansatz().bind(binding));
  EXPECT_EQ(amplitudes(via_run), amplitudes(via_simulate));
}

TEST(CompiledCircuit, RunNamesTheMissingSymbol) {
  const Session session(small_config());
  const CompiledCircuit compiled = session.compile(sweep_ansatz());
  try {
    session.run(compiled, ParamBinding{{"theta", 0.1}});
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("gamma"), std::string::npos);
  }
}

TEST(CompiledCircuit, RejectsHandleFromDifferentClusterShape) {
  const Session a(small_config(5, 1, 1));
  const Session b(small_config(4, 2, 1));  // same 7 qubits, other shape
  const CompiledCircuit compiled = a.compile(sweep_ansatz());
  EXPECT_THROW(b.run(compiled, ParamBinding{{"theta", 0.0}, {"gamma", 0.0}}),
               Error);
}

TEST(CompiledCircuit, InvalidHandleThrows) {
  const Session session(small_config());
  EXPECT_THROW(session.run(CompiledCircuit{}), Error);
}

TEST(Session, SimulateRejectsUnboundCircuits) {
  const Session session(small_config());
  try {
    session.simulate(sweep_ansatz());
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("gamma"), std::string::npos);
  }
}

TEST(Session, ConstantParameterVariantsShareOnePlanButNotValues) {
  // Structural caching must never replay the *first* circuit's
  // parameter values: rx(0.3) and rx(0.7) share a plan yet produce
  // different states.
  const Session session(small_config());
  Circuit c1(7), c2(7);
  for (Qubit q = 0; q < 7; ++q) c1.add(Gate::rx(q, 0.3));
  for (Qubit q = 0; q < 7; ++q) c2.add(Gate::rx(q, 0.7));
  const SimulationResult r1 = session.simulate(c1);
  const SimulationResult r2 = session.simulate(c2);
  EXPECT_EQ(r1.plan.get(), r2.plan.get());  // one shared plan
  EXPECT_EQ(session.plan_cache_stats().misses, 1u);
  EXPECT_EQ(session.plan_cache_stats().hits, 1u);
  EXPECT_NE(amplitudes(r1), amplitudes(r2));  // but distinct physics
  EXPECT_EQ(amplitudes(r2),
            amplitudes(Simulator{SimulatorConfig(small_config())}.simulate(c2)));
}

std::atomic<int> sweep_stager_calls{0};
std::atomic<int> sweep_kernelizer_calls{0};

class SweepCountingStager final : public staging::Stager {
 public:
  std::string name() const override { return "sweep-counting"; }
  staging::StagedCircuit stage(const Circuit& circuit,
                               const staging::MachineShape& shape,
                               const staging::StagingOptions&) const override {
    ++sweep_stager_calls;
    return staging::stage_with_snuqs(circuit, shape);
  }
};

class SweepCountingKernelizer final : public kernelize::Kernelizer {
 public:
  std::string name() const override { return "sweep-counting"; }
  kernelize::Kernelization kernelize(
      const Circuit& circuit, const kernelize::CostModel& model,
      const kernelize::DpOptions&) const override {
    ++sweep_kernelizer_calls;
    return kernelize::kernelize_ordered(circuit, model);
  }
};

TEST(Sweep, ThirtyTwoBindingsOneStagingPassBitIdenticalResults) {
  staging::stager_registry().add(
      "sweep-counting", [] { return std::make_shared<SweepCountingStager>(); });
  kernelize::kernelizer_registry().add("sweep-counting", [] {
    return std::make_shared<SweepCountingKernelizer>();
  });

  SessionConfig cfg = small_config();
  cfg.stager = "sweep-counting";
  cfg.kernelizer = "sweep-counting";
  cfg.dispatch_threads = 4;
  const Session session(cfg);

  const CompiledCircuit compiled = session.compile(sweep_ansatz());
  std::vector<ParamBinding> bindings;
  for (int i = 0; i < 32; ++i) {
    bindings.push_back(ParamBinding{}
                           .set("theta", 0.05 * i)
                           .set("gamma", 1.0 - 0.03 * i));
  }
  const int stager_before = sweep_stager_calls.load();
  const std::vector<SimulationResult> results =
      session.sweep(compiled, bindings);

  // The whole 32-point sweep re-used compile()'s single staging +
  // kernelization pass (kernelization runs once per stage of that one
  // pass, never once per binding).
  EXPECT_EQ(sweep_stager_calls.load(), stager_before);
  EXPECT_EQ(session.plan_cache_stats().misses, 1u);
  ASSERT_EQ(results.size(), bindings.size());

  // Spot-check bit-identical agreement with the naive per-binding
  // simulate() path across the sweep.
  for (std::size_t i : {std::size_t{0}, std::size_t{15}, std::size_t{31}}) {
    EXPECT_EQ(amplitudes(results[i]),
              amplitudes(session.simulate(sweep_ansatz().bind(bindings[i]))))
        << "binding " << i;
  }
  EXPECT_EQ(sweep_stager_calls.load(), stager_before);  // still cached
}

TEST(SimulationResult, ReturnedPlanReExecutesWithItsParams) {
  // simulate()'s plan is canonicalized (slot symbols), so re-running it
  // needs the slot values the run recorded in result.params.
  const Session session(small_config());
  const Circuit c = circuits::ising(7);  // carries rotation parameters
  const SimulationResult r = session.simulate(c);
  ASSERT_FALSE(r.slot_values.empty());
  ASSERT_FALSE(r.params().empty());
  exec::DistState fresh = session.executor().initial_state(*r.plan,
                                                           session.cluster());
  session.execute(*r.plan, fresh, r.params());
  EXPECT_EQ(fresh.gather().amplitudes(), r.state.gather().amplitudes());
}

TEST(Sweep, FailsFastNamingTheBadBinding) {
  const Session session(small_config());
  const CompiledCircuit compiled = session.compile(sweep_ansatz());
  std::vector<ParamBinding> bindings = {
      ParamBinding{{"theta", 0.1}, {"gamma", 0.2}},
      ParamBinding{{"theta", 0.3}},  // gamma missing
  };
  try {
    session.sweep(compiled, bindings);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("#1"), std::string::npos);
    EXPECT_NE(what.find("gamma"), std::string::npos);
  }
}

TEST(Sweep, SubmitCompiledMatchesRun) {
  const Session session(small_config());
  const CompiledCircuit compiled = session.compile(sweep_ansatz());
  const ParamBinding binding{{"theta", 0.2}, {"gamma", 0.9}};
  auto future = session.submit(compiled, binding);
  EXPECT_EQ(amplitudes(future.get()),
            amplitudes(session.run(compiled, binding)));
}

// --- plan-cache keying (cluster shape) ----------------------------------

TEST(PlanKey, IncludesClusterShape) {
  // Two sessions over the same 7 logical qubits but different shapes
  // must key the same circuit differently: their plans embed
  // shape-dependent partitions, so shared caches must never collide.
  const Session a(small_config(5, 1, 1));
  const Session b(small_config(4, 2, 1));
  const Circuit c = circuits::qft(7);
  EXPECT_NE(a.plan_key(c), b.plan_key(c));
  EXPECT_EQ(a.plan_key(c), a.plan_key(circuits::qft(7)));

  // Structural keying: parameter values do not enter the key.
  Circuit p1(7), p2(7);
  for (Qubit q = 0; q < 7; ++q) p1.add(Gate::rz(q, 0.25));
  for (Qubit q = 0; q < 7; ++q) p2.add(Gate::rz(q, 0.50));
  EXPECT_EQ(a.plan_key(p1), a.plan_key(p2));
  EXPECT_NE(a.plan_key(p1), b.plan_key(p1));
}

// --- executor backends --------------------------------------------------

TEST(ExecutorBackend, InMemoryRefusesOffloadClusters) {
  SessionConfig cfg = small_config();
  cfg.cluster.gpus_per_node = 1;  // 2 shards/node -> offloading
  cfg.executor = "inmemory";
  // Refused at construction, before any state is allocated.
  try {
    Session session(cfg);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("inmemory"), std::string::npos);
  }

  // "device" serves the shape: same state and same metering as the
  // in-place plan walk on it.
  cfg.executor = "device";
  const Session device_session(cfg);
  const SimulationResult r = device_session.simulate(circuits::qft(7));
  exec::DistState state =
      exec::initial_state(*r.plan, device_session.cluster());
  ParamEnv env;
  env.slots = &r.slot_values;
  const exec::ExecutionReport walked =
      exec::execute_plan(*r.plan, device_session.cluster(), state, env);
  EXPECT_EQ(amplitudes(r), amplitudes(state));
  EXPECT_GT(r.report.totals.offload_bytes, 0u);
  const device::CommStats& a = r.report.totals;
  const device::CommStats& b = walked.totals;
  EXPECT_EQ(a.intra_gpu_bytes, b.intra_gpu_bytes);
  EXPECT_EQ(a.intra_node_bytes, b.intra_node_bytes);
  EXPECT_EQ(a.inter_node_bytes, b.inter_node_bytes);
  EXPECT_EQ(a.offload_bytes, b.offload_bytes);
  EXPECT_EQ(a.kernel_bytes, b.kernel_bytes);
  EXPECT_EQ(a.alltoall_rounds, b.alltoall_rounds);

  // "auto" must route offload clusters to the device backend.
  cfg.executor = "auto";
  const Session auto_session(cfg);
  EXPECT_EQ(auto_session.executor().name(), "device");
  EXPECT_EQ(amplitudes(auto_session.simulate(circuits::qft(7))),
            amplitudes(r));
}

// --- kernelize_best toggle ----------------------------------------------

TEST(KernelizeBest, AlsoTryOrderedToggleKeepsValidity) {
  const Circuit c = circuits::qft(7);
  const auto model = kernelize::CostModel::default_model();
  kernelize::DpOptions opts;
  opts.also_try_ordered = false;
  const auto dp_only = kernelize::kernelize_best(c, model, opts);
  kernelize::validate_kernelization(c, dp_only, model);
  opts.also_try_ordered = true;
  const auto both = kernelize::kernelize_best(c, model, opts);
  // Taking the min over an extra candidate can only help.
  EXPECT_LE(both.total_cost, dp_only.total_cost);
}

}  // namespace
}  // namespace atlas
