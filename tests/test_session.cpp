// Session API tests: construction-time config validation, plan-cache
// behavior (hits, eviction, disabling, engine-configuration salting),
// and concurrent submit() determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "circuits/families.h"
#include "core/session.h"
#include "kernelize/kernelizer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "verify_matchers.h"

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

TEST(PlanCache, SecondCompileOfIdenticalCircuitHits) {
  const Session session(small_config());
  const Circuit c = circuits::qft(7);
  const CompiledCircuit c1 = session.compile(c);
  const CompiledCircuit c2 = session.compile(c);
  EXPECT_EQ(c1.plan().get(), c2.plan().get());  // literally the same plan
  EXPECT_FALSE(c1.diagnostics().plan_cached);
  EXPECT_TRUE(c2.diagnostics().plan_cached);

  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);

  // A structurally identical rebuild (different name) also hits.
  Circuit c3 = circuits::qft(7);
  c3.set_name("renamed");
  (void)session.compile(c3);
  EXPECT_EQ(session.plan_cache_stats().hits, 2u);
}

TEST(PlanCache, PlanIsUncached) {
  const Session session(small_config());
  const Circuit c = circuits::qft(7);
  const auto p1 = session.plan(c);
  const auto p2 = session.plan(c);
  EXPECT_NE(p1.get(), p2.get());
  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.size, 0u);
}

TEST(PlanCache, DistinctCircuitsMissAndLruEvicts) {
  SessionConfig cfg = small_config();
  cfg.plan_cache_capacity = 1;
  const Session session(cfg);
  (void)session.compile(circuits::qft(7));
  (void)session.compile(circuits::ghz(7));  // evicts the qft plan
  (void)session.compile(circuits::qft(7));  // cold again
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
  const CompiledCircuit c1 = session.compile(c);
  const CompiledCircuit c2 = session.compile(c);
  EXPECT_NE(c1.plan().get(), c2.plan().get());
  EXPECT_EQ(session.plan_cache_stats().hits, 0u);
  EXPECT_EQ(session.plan_cache_stats().misses, 2u);
}

TEST(PlanCache, ClearResetsEntries) {
  Session session(small_config());  // clear_plan_cache() is non-const
  const Circuit c = circuits::qft(7);
  (void)session.compile(c);
  session.clear_plan_cache();
  EXPECT_EQ(session.plan_cache_stats().size, 0u);
  (void)session.compile(c);
  EXPECT_EQ(session.plan_cache_stats().misses, 2u);
}

// Sessions sharing one cache share plans only when they would build
// the same plan: the key is salted with the stager, the kernelizer,
// the cost model and the staging/kernelize options, not just the
// circuit structure and the cluster shape.
TEST(PlanCache, SharedCacheNeverCrossesEngineConfigurations) {
  const auto cache = std::make_shared<PlanCache>(16);
  const Circuit c = circuits::qft(7);
  const Session base(small_config(), cache);
  const CompiledCircuit first = base.compile(c);
  EXPECT_FALSE(first.diagnostics().plan_cached);

  // Same configuration: the second session reuses the first one's plan.
  const Session twin(small_config(), cache);
  const CompiledCircuit shared = twin.compile(c);
  EXPECT_TRUE(shared.diagnostics().plan_cached);
  EXPECT_EQ(shared.plan().get(), first.plan().get());
  EXPECT_EQ(twin.plan_cache_stats().hits, 1u);  // one cache, one count

  std::vector<SessionConfig> variants(4, small_config());
  variants[0].cost_model.shm_alpha += 1.0;
  variants[1].staging.bnb.beam_width += 1;
  variants[2].kernelize.prune_threshold += 1;
  variants[3].cluster.local_qubits = 4;
  variants[3].cluster.regional_qubits = 2;
  variants[3].cluster.gpus_per_node = 4;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Session other(variants[i], cache);
    const CompiledCircuit cc = other.compile(c);
    EXPECT_FALSE(cc.diagnostics().plan_cached) << "variant " << i;
    EXPECT_NE(cc.plan().get(), first.plan().get()) << "variant " << i;
    // And it still computes the right state on its own plan.
    EXPECT_NEAR(other.run(cc).norm_sq(), 1.0, 1e-9) << "variant " << i;
  }
  EXPECT_EQ(cache->stats().misses, 1u + variants.size());
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

  // Sequential ground truth from a second session with the same config.
  const Session sequential(cfg);
  std::vector<std::vector<Amp>> expected;
  for (const Circuit& c : jobs)
    expected.push_back(amplitudes(sequential.simulate(c)));

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

TEST(Session, SubmittedBatchAlignsResults) {
  const Session session(small_config());
  // Both jobs are in flight before either is collected.
  auto qft = session.submit(circuits::qft(7));
  auto ghz = session.submit(circuits::ghz(7));
  EXPECT_EQ(amplitudes(qft.get()),
            amplitudes(session.simulate(circuits::qft(7))));
  EXPECT_EQ(amplitudes(ghz.get()),
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
            amplitudes(Session(small_config()).simulate(c2)));
}

TEST(Sweep, ThirtyTwoBindingsOneStagingPassBitIdenticalResults) {
  // build_plan() observes this histogram once per staging run.
  const obs::Histogram& stage_runs =
      obs::histogram(obs::names::kCompileStageUs);
  SessionConfig cfg = small_config();
  cfg.dispatch_threads = 4;
  const Session session(cfg);

  const std::uint64_t runs_before = stage_runs.count();
  const CompiledCircuit compiled = session.compile(sweep_ansatz());
  EXPECT_EQ(stage_runs.count(), runs_before + 1);  // compile()'s one pass
  std::vector<ParamBinding> bindings;
  for (int i = 0; i < 32; ++i) {
    bindings.push_back(ParamBinding{}
                           .set("theta", 0.05 * i)
                           .set("gamma", 1.0 - 0.03 * i));
  }
  const std::vector<SimulationResult> results =
      session.sweep(compiled, bindings);

  // The whole 32-point sweep re-used compile()'s single staging +
  // kernelization pass (kernelization runs once per stage of that one
  // pass, never once per binding).
  EXPECT_EQ(stage_runs.count(), runs_before + 1);
  EXPECT_EQ(session.plan_cache_stats().misses, 1u);
  ASSERT_EQ(results.size(), bindings.size());

  // Spot-check bit-identical agreement with the naive per-binding
  // simulate() path across the sweep.
  for (std::size_t i : {std::size_t{0}, std::size_t{15}, std::size_t{31}}) {
    EXPECT_EQ(amplitudes(results[i]),
              amplitudes(session.simulate(sweep_ansatz().bind(bindings[i]))))
        << "binding " << i;
  }
  EXPECT_EQ(stage_runs.count(), runs_before + 1);  // still cached
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

// --- kernelize_best ------------------------------------------------------

TEST(KernelizeBest, NeverWorseThanDpOrOrdered) {
  const auto model = kernelize::CostModel::default_model();
  const kernelize::DpOptions opts;
  for (const Circuit& c :
       {circuits::qft(7), circuits::make_family("ghz", 9),
        circuits::random_circuit(6, 40, 3)}) {
    const auto b = kernelize::kernelize_best(c, model, opts);
    EXPECT_TRUE(clean(verify::verify_kernelization(c, b, model)));
    const double d = kernelize::kernelize_dp(c, model, opts).total_cost;
    const double o = kernelize::kernelize_ordered(c, model).total_cost;
    // The min of the two candidates, bit for bit.
    EXPECT_EQ(b.total_cost, std::min(d, o));
  }
}

}  // namespace
}  // namespace atlas
