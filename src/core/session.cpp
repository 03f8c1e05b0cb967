#include "core/session.h"

#include <algorithm>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/mutex.h"
#include "common/fnv.h"
#include "exec/queries.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "staging/stage.h"

namespace atlas {
namespace {

staging::MachineShape shape_of(const SessionConfig& config) {
  staging::MachineShape shape;
  shape.num_local = config.cluster.local_qubits;
  shape.num_regional = config.cluster.regional_qubits;
  shape.num_global = config.cluster.global_qubits;
  shape.cost_factor = config.stage_cost_factor;
  return shape;
}

/// Hash of everything about the machine shape a plan depends on. Mixed
/// into every plan-cache key so two sessions with different shapes can
/// never alias, even if their caches were ever shared or a
/// CompiledCircuit handle migrated between sessions.
std::uint64_t shape_salt_of(const SessionConfig& config) {
  Fnv f(0xcbf29ce484222325ull);
  f.mix(static_cast<std::uint64_t>(config.cluster.local_qubits));
  f.mix(static_cast<std::uint64_t>(config.cluster.regional_qubits));
  f.mix(static_cast<std::uint64_t>(config.cluster.global_qubits));
  f.mix(static_cast<std::uint64_t>(config.cluster.gpus_per_node));
  f.mix_double(config.stage_cost_factor);
  return f.value();
}

}  // namespace

// --- SimulationResult query facade ---------------------------------------

const ParamBinding& SimulationResult::params() const {
  // Built on demand: sweeps and trajectory batches produce thousands of
  // results whose string-keyed binding nobody reads — the dense
  // slot_values record is the source of truth.
  if (!params_cache_) {
    auto built = std::make_shared<ParamBinding>();
    for (std::size_t k = 0; k < slot_values.size(); ++k)
      built->set(slot_symbol_name(static_cast<int>(k)), slot_values[k]);
    params_cache_ = std::move(built);
  }
  return *params_cache_;
}

Amp SimulationResult::amplitude(Index index) const {
  return exec::amplitude(state, index);
}

double SimulationResult::probability(Index index) const {
  return exec::probability(state, index);
}

double SimulationResult::norm_sq() const { return exec::norm_sq(state); }

std::vector<double> SimulationResult::marginal(
    const std::vector<Qubit>& qubits) const {
  return exec::marginal_distribution(state, qubits);
}

double SimulationResult::expectation_z(Qubit q) const {
  return exec::expectation_z(state, q);
}

std::vector<Index> SimulationResult::sample(int shots, Rng& rng) const {
  return exec::sample(state, shots, rng);
}

std::vector<Index> SimulationResult::sample(int shots) const {
  Rng rng = Rng::for_stream(seed, sample_counter_++);
  return exec::sample(state, shots, rng);
}

void validate_session_config(const SessionConfig& config) {
  const auto& cc = config.cluster;
  ATLAS_CHECK_ARG(cc.local_qubits >= 3 && cc.local_qubits < 40,
              "cluster.local_qubits must be in [3, 40), got "
                  << cc.local_qubits);
  ATLAS_CHECK_ARG(cc.regional_qubits >= 0, "cluster.regional_qubits is negative: "
                                           << cc.regional_qubits);
  ATLAS_CHECK_ARG(cc.global_qubits >= 0,
              "cluster.global_qubits is negative: " << cc.global_qubits);
  ATLAS_CHECK_ARG(cc.regional_qubits + cc.global_qubits < 24,
              "cluster has 2^" << (cc.regional_qubits + cc.global_qubits)
                               << " shards; that cannot be simulated");
  ATLAS_CHECK_ARG(cc.gpus_per_node >= 1,
              "cluster.gpus_per_node must be >= 1, got " << cc.gpus_per_node);
  ATLAS_CHECK_ARG(cc.gpus_per_node <= cc.shards_per_node(),
              "cluster.gpus_per_node ("
                  << cc.gpus_per_node << ") exceeds 2^regional_qubits ("
                  << cc.shards_per_node()
                  << "); shrink gpus_per_node or grow regional_qubits");
  ATLAS_CHECK_ARG(cc.num_threads >= 0,
              "cluster.num_threads is negative: " << cc.num_threads);
  ATLAS_CHECK_ARG(config.dispatch_threads >= 0,
              "dispatch_threads is negative: " << config.dispatch_threads);
  ATLAS_CHECK_ARG(config.stage_cost_factor > 0,
              "stage_cost_factor must be positive, got "
                  << config.stage_cost_factor);
  ATLAS_CHECK_ARG(config.staging.ilp.max_stages >= 1,
              "staging.ilp.max_stages must be >= 1, got "
                  << config.staging.ilp.max_stages);
  ATLAS_CHECK_ARG(config.staging.ilp.node_budget >= 0,
              "staging.ilp.node_budget is negative");
  ATLAS_CHECK_ARG(config.staging.bnb.max_stages >= 1,
              "staging.bnb.max_stages must be >= 1, got "
                  << config.staging.bnb.max_stages);
  ATLAS_CHECK_ARG(config.staging.bnb.beam_width >= 1,
              "staging.bnb.beam_width must be >= 1, got "
                  << config.staging.bnb.beam_width);
  ATLAS_CHECK_ARG(config.staging.bnb.max_solutions >= 1,
              "staging.bnb.max_solutions must be >= 1, got "
                  << config.staging.bnb.max_solutions);
  ATLAS_CHECK_ARG(config.staging.bnb.node_budget >= 0,
              "staging.bnb.node_budget is negative");
  ATLAS_CHECK_ARG(config.kernelize.prune_threshold >= 1,
              "kernelize.prune_threshold must be >= 1, got "
                  << config.kernelize.prune_threshold);
  ATLAS_CHECK_ARG(!config.cost_model.fusion_cost.empty() &&
                  config.cost_model.max_fusion_qubits + 1 ==
                      static_cast<int>(config.cost_model.fusion_cost.size()),
              "cost_model.fusion_cost does not match max_fusion_qubits");
  ATLAS_CHECK_ARG(config.opt_level >= 0 && config.opt_level <= 2,
              "opt_level must be in [0, 2], got " << config.opt_level);
}

/// LRU plan cache. One map holds two disjoint key spaces (distinct FNV
/// bases): value-sensitive fingerprint() keys from plan(), which map to
/// concrete plans, and structural_fingerprint() keys from compile()/
/// simulate(), which map to canonicalized slot plans. Every key is
/// additionally salted with the session's cluster shape so entries can
/// never alias across shapes (plans embed shape-dependent partitions).
/// num_qubits/num_gates ride along as cheap collision guards for the
/// 64-bit hash.
class Session::PlanCache {
 public:
  explicit PlanCache(std::size_t capacity,
                     std::shared_ptr<PlanCacheListener> listener)
      : capacity_(capacity), listener_(std::move(listener)) {}

  std::shared_ptr<const exec::ExecutionPlan> find(std::uint64_t key,
                                                  const Circuit& circuit) {
    std::shared_ptr<const exec::ExecutionPlan> found;
    {
      MutexLock lock(mu_);
      if (capacity_ == 0) {
        // Disabled caches still count misses: the counter is the
        // replanning canary benches and tests read.
        ++misses_;
      } else {
        auto it = index_.find(key);
        if (it == index_.end() ||
            it->second->num_qubits != circuit.num_qubits() ||
            it->second->num_gates != circuit.num_gates()) {
          ++misses_;
        } else {
          entries_.splice(entries_.begin(), entries_, it->second);  // to MRU
          ++hits_;
          found = it->second->plan;
        }
      }
    }
    // Telemetry outside the cache lock: the process-wide registry
    // counters and the optional per-session listener mirror the
    // hit/miss accounting above exactly.
    static obs::Counter& hits = obs::counter(obs::names::kPlanCacheHits);
    static obs::Counter& misses = obs::counter(obs::names::kPlanCacheMisses);
    if (found != nullptr) {
      hits.inc();
      if (listener_) listener_->on_hit();
    } else {
      misses.inc();
      if (listener_) listener_->on_miss();
    }
    return found;
  }

  void insert(std::uint64_t key, const Circuit& circuit,
              std::shared_ptr<const exec::ExecutionPlan> plan) {
    if (capacity_ == 0) return;
    // Size the plan outside the lock; it walks every stage.
    const std::size_t bytes = exec::approx_resident_bytes(*plan);
    bool inserted = false;
    bool evicted = false;
    std::size_t evicted_bytes = 0;
    {
      MutexLock lock(mu_);
      if (index_.count(key)) return;  // a concurrent planner won the race
      entries_.push_front(Entry{key, circuit.num_qubits(),
                                circuit.num_gates(), bytes, std::move(plan)});
      index_[key] = entries_.begin();
      resident_bytes_ += bytes;
      inserted = true;
      if (entries_.size() > capacity_) {
        evicted_bytes = entries_.back().bytes;
        resident_bytes_ -= evicted_bytes;
        index_.erase(entries_.back().key);
        entries_.pop_back();
        ++evictions_;
        evicted = true;
      }
    }
    if (inserted && listener_) listener_->on_insert(bytes);
    if (evicted) {
      static obs::Counter& evictions =
          obs::counter(obs::names::kPlanCacheEvictions);
      evictions.inc();
      if (listener_) listener_->on_evict(evicted_bytes);
    }
  }

  PlanCacheStats stats() const {
    MutexLock lock(mu_);
    PlanCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.size = entries_.size();
    s.capacity = capacity_;
    s.resident_bytes = resident_bytes_;
    return s;
  }

  void clear() {
    std::size_t entries = 0;
    std::size_t bytes = 0;
    {
      MutexLock lock(mu_);
      entries = entries_.size();
      bytes = resident_bytes_;
      entries_.clear();
      index_.clear();
      resident_bytes_ = 0;
    }
    if (listener_ && entries > 0) listener_->on_clear(entries, bytes);
  }

 private:
  struct Entry {
    std::uint64_t key;
    int num_qubits;
    int num_gates;
    std::size_t bytes;
    std::shared_ptr<const exec::ExecutionPlan> plan;
  };

  const std::size_t capacity_;
  const std::shared_ptr<PlanCacheListener> listener_;
  mutable Mutex mu_;
  std::list<Entry> entries_ ATLAS_GUARDED_BY(mu_);  // MRU at front
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
      ATLAS_GUARDED_BY(mu_);
  std::uint64_t hits_ ATLAS_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ ATLAS_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ ATLAS_GUARDED_BY(mu_) = 0;
  std::size_t resident_bytes_ ATLAS_GUARDED_BY(mu_) = 0;
};

Session::Session(SessionConfig config)
    : config_((validate_session_config(config), std::move(config))),
      cluster_(config_.cluster),
      shape_salt_(shape_salt_of(config_)),
      stager_(staging::stager_registry().create(config_.stager)),
      kernelizer_(kernelize::kernelizer_registry().create(config_.kernelizer)),
      executor_(exec::make_executor(config_.executor, config_.cluster)),
      pipeline_([this] {
        CompilePipeline::Config pc;
        pc.shape = shape_of(config_);
        pc.staging = config_.staging;
        pc.cost_model = config_.cost_model;
        pc.kernelize = config_.kernelize;
        pc.opt.level = config_.opt_level;
        pc.verify = config_.verify_level;
        pc.dump = config_.compile_dump;
        return std::make_unique<CompilePipeline>(std::move(pc), stager_,
                                                 kernelizer_);
      }()),
      plan_cache_(std::make_unique<PlanCache>(config_.plan_cache_capacity,
                                              config_.plan_cache_listener)),
      dispatch_pool_(std::make_unique<ThreadPool>(
          config_.dispatch_threads > 0
              ? static_cast<std::size_t>(config_.dispatch_threads)
              : std::min<std::size_t>(
                    4, std::max<std::size_t>(
                           1, std::thread::hardware_concurrency())))) {
  if (!config_.trace_path.empty()) {
    obs::Tracer::instance().start(config_.trace_path);
    trace_started_ = true;
  }
}

Session::~Session() {
  // Drain in-flight submit() jobs before any member goes away; the
  // pool's destructor finishes queued tasks, and everything they touch
  // (cluster, cache, backends) outlives it by member order.
  dispatch_pool_.reset();
  // After the drain every span this session could emit has been
  // recorded; the matching stop() writes the trace file when this was
  // the last tracing session.
  if (trace_started_) obs::Tracer::instance().stop();
}

exec::ExecutionPlan Session::build_plan(const Circuit& circuit) const {
  // The back half of the compile pipeline (stage -> kernelize ->
  // assemble); the value-keyed plan() path and the noise engine's
  // per-trajectory plans skip the optimize/canonicalize phases.
  return pipeline_->build_plan(circuit, nullptr);
}

std::shared_ptr<const exec::ExecutionPlan> Session::plan_memoized(
    std::uint64_t key, const Circuit& circuit) const {
  if (auto cached = plan_cache_->find(key, circuit)) return cached;
  auto built =
      std::make_shared<const exec::ExecutionPlan>(build_plan(circuit));
  plan_cache_->insert(key, circuit, built);
  return built;
}

std::shared_ptr<const exec::ExecutionPlan> Session::plan(
    const Circuit& circuit) const {
  return plan_memoized(fnv_mix(shape_salt_, circuit.fingerprint()), circuit);
}

std::uint64_t Session::plan_key(const Circuit& circuit) const {
  return pipeline_->plan_key(circuit, shape_salt_);
}

CompiledCircuit Session::compile(const Circuit& circuit) const {
  return pipeline_->compile(
      circuit, shape_salt_,
      [this](std::uint64_t key, const Circuit& canonical,
             CompileDiagnostics& diag) {
        if (auto cached = plan_cache_->find(key, canonical)) {
          diag.plan_cached = true;
          return cached;
        }
        auto built = std::make_shared<const exec::ExecutionPlan>(
            pipeline_->build_plan(canonical, &diag));
        plan_cache_->insert(key, canonical, built);
        return built;
      });
}

void Session::check_compiled(const CompiledCircuit& compiled,
                             const char* what) const {
  ATLAS_CHECK_ARG(compiled.valid(), "" << what
                                    << "() on an invalid CompiledCircuit; "
                                       "use Session::compile()");
  ATLAS_CHECK_ARG(compiled.shape_salt_ == shape_salt_,
              "CompiledCircuit was compiled for a different cluster shape; "
              "recompile it with this session");
}

void Session::dispatch_each(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  // Tasks reference caller-owned state through `fn`, so no exception
  // may unwind this frame while a task is still queued or running: a
  // future is recorded only once its task is queued, and every
  // recorded future is joined before anything propagates.
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  try {
    for (std::size_t i = 0; i < count; ++i) {
      auto task = std::make_shared<std::packaged_task<void()>>(
          [&fn, i] { fn(i); });
      std::future<void> future = task->get_future();
      dispatch_pool_->submit([task] { (*task)(); });
      futures.push_back(std::move(future));
    }
  } catch (...) {
    for (auto& f : futures) f.wait();
    throw;
  }
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();  // rethrows the first task failure
}

SimulationResult Session::run(const CompiledCircuit& compiled,
                              const ParamBinding& binding) const {
  check_compiled(compiled, "run");
  return run_point(compiled, compiled.slot_values(binding));
}

SimulationResult Session::run(const CompiledCircuit& compiled,
                              const std::vector<double>& symbol_values) const {
  check_compiled(compiled, "run");
  return run_point(compiled, compiled.slot_values_from(symbol_values));
}

SimulationResult Session::result_shell(const CompiledCircuit& compiled,
                                       SlotValues values) const {
  SimulationResult result;
  result.plan = compiled.plan();
  // The dense slot table is both the execution input and the
  // reproducibility record; the string-keyed view is built lazily by
  // params().
  result.slot_values = std::move(values);
  // Sampling seed keyed by the run's identity (not a call counter):
  // equal runs sample equal shots, and sweep results are independent
  // of dispatch-pool completion order.
  Fnv f;
  f.mix(compiled.plan_key());
  for (double v : result.slot_values) f.mix_double(v);
  result.seed = rng_stream_seed(config_.seed, f.value());
  result.state = executor_->initial_state(*result.plan, cluster_);
  return result;
}

SimulationResult Session::run_point(const CompiledCircuit& compiled,
                                    SlotValues values) const {
  SimulationResult result = result_shell(compiled, std::move(values));
  ParamEnv env;
  env.slots = &result.slot_values;
  result.report =
      executor_->execute(*result.plan, cluster_, result.state, env);
  return result;
}

void Session::run_points(
    const CompiledCircuit& compiled, std::size_t count, std::size_t batch,
    const std::function<SlotValues(std::size_t)>& values,
    const std::function<void(std::size_t, SimulationResult&)>& sink) const {
  if (!executor_->batched_launches(cluster_.config())) {
    dispatch_each(count, [&](std::size_t i) {
      SimulationResult result = run_point(compiled, values(i));
      sink(i, result);
    });
    return;
  }
  // Batched launches: each batch ships as one command list per stage
  // (constant kernels bind once, every point enqueues only its delta).
  // Every batch point's state is resident at once, so `batch` bounds
  // peak memory. The states are allocated and freed on this thread, so
  // consecutive batches reuse one allocator arena.
  for (std::size_t begin = 0; begin < count; begin += batch) {
    const std::size_t n = std::min(batch, count - begin);
    std::vector<SimulationResult> results(n);
    std::vector<exec::BatchPoint> points(n);
    for (std::size_t j = 0; j < n; ++j) {
      results[j] = result_shell(compiled, values(begin + j));
      points[j].state = &results[j].state;
      points[j].env.slots = &results[j].slot_values;
    }
    std::vector<exec::ExecutionReport> reports =
        executor_->execute_batch(*compiled.plan(), cluster_, points);
    ATLAS_CHECK(reports.size() == n,
                "executor '" << executor_->name() << "' returned "
                             << reports.size() << " batch reports for " << n
                             << " points");
    dispatch_each(n, [&](std::size_t j) {
      results[j].report = std::move(reports[j]);
      sink(begin + j, results[j]);
    });
  }
}

std::future<SimulationResult> Session::submit(const CompiledCircuit& compiled,
                                              ParamBinding binding) const {
  auto task = std::make_shared<std::packaged_task<SimulationResult()>>(
      [this, compiled, binding = std::move(binding)] {
        return run(compiled, binding);
      });
  std::future<SimulationResult> future = task->get_future();
  dispatch_pool_->submit([task] { (*task)(); });
  return future;
}

std::vector<SimulationResult> Session::sweep(
    const CompiledCircuit& compiled, std::vector<ParamBinding> bindings) const {
  check_compiled(compiled, "sweep");
  // Fail fast with the offending point named, before any work is
  // dispatched — a bad binding mid-sweep would otherwise surface as an
  // unattributed exception after discarding every computed result.
  for (std::size_t i = 0; i < bindings.size(); ++i)
    for (const std::string& s : compiled.symbols())
      ATLAS_CHECK_ARG(bindings[i].contains(s), "sweep binding #"
                                               << i << " is missing symbol '"
                                               << s << "'");
  std::vector<SimulationResult> results(bindings.size());
  run_points(
      compiled, results.size(), results.size(),
      [&](std::size_t i) { return compiled.slot_values(bindings[i]); },
      [&](std::size_t i, SimulationResult& r) { results[i] = std::move(r); });
  return results;
}

std::vector<SimulationResult> Session::sweep(
    const CompiledCircuit& compiled,
    const std::vector<std::vector<double>>& points) const {
  check_compiled(compiled, "sweep");
  const std::size_t want = compiled.symbols().size();
  for (std::size_t i = 0; i < points.size(); ++i)
    ATLAS_CHECK_ARG(points[i].size() == want,
                "sweep point #" << i << " has " << points[i].size()
                                << " values but the compiled circuit takes "
                                << want << " symbols");
  std::vector<SimulationResult> results(points.size());
  run_points(
      compiled, results.size(), results.size(),
      [&](std::size_t i) { return compiled.slot_values_from(points[i]); },
      [&](std::size_t i, SimulationResult& r) { results[i] = std::move(r); });
  return results;
}

exec::ExecutionReport Session::execute(const exec::ExecutionPlan& plan,
                                       exec::DistState& state) const {
  return executor_->execute(plan, cluster_, state, ParamEnv{});
}

exec::ExecutionReport Session::execute(const exec::ExecutionPlan& plan,
                                       exec::DistState& state,
                                       const ParamBinding& binding) const {
  ParamEnv env;
  env.named = &binding;
  return executor_->execute(plan, cluster_, state, env);
}

SimulationResult Session::simulate(const Circuit& circuit) const {
  if (circuit.is_parameterized()) {
    const auto symbols = circuit.symbols();
    throw Error("simulate() needs a fully bound circuit but '" +
                circuit.name() + "' has free symbols (" + symbols.front() +
                ", ...); use compile()/run() with a ParamBinding or "
                "Circuit::bind",
                ErrorCode::invalid_argument);
  }
  return run(compile(circuit), ParamBinding{});
}

std::future<SimulationResult> Session::submit(Circuit circuit) const {
  auto task = std::make_shared<std::packaged_task<SimulationResult()>>(
      [this, circuit = std::move(circuit)] { return simulate(circuit); });
  std::future<SimulationResult> future = task->get_future();
  dispatch_pool_->submit([task] { (*task)(); });
  return future;
}

std::vector<SimulationResult> Session::simulate_batch(
    std::vector<Circuit> circuits) const {
  std::vector<std::future<SimulationResult>> futures;
  futures.reserve(circuits.size());
  for (Circuit& c : circuits) futures.push_back(submit(std::move(c)));
  std::vector<SimulationResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

PlanCacheStats Session::plan_cache_stats() const {
  return plan_cache_->stats();
}

void Session::clear_plan_cache() { plan_cache_->clear(); }

}  // namespace atlas
