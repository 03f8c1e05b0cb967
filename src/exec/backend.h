#pragma once

/// \file backend.h
/// The pluggable execution seam: a polymorphic ExecutorBackend over
/// EXECUTE plus a string-keyed registry so external runtimes can plug
/// in without touching core headers. Built-ins:
///
///  * "inmemory" — every shard GPU-resident; refuses clusters
///    configured for DRAM offloading (typed atlas::Error) so capacity
///    mistakes surface at session construction, not mid-run.
///  * "device"   — device-style backend (exec/device_executor.h):
///    explicit buffer lifecycle, an async command queue overlapping
///    copies with kernel replay, and batched launches that amortize
///    per-point setup across a sweep or trajectory batch. Serves DRAM
///    offloading shapes, where shards outnumber GPUs and swap through
///    them (Section VII-C).
///
/// SessionConfig::executor also accepts "auto", which make_executor()
/// resolves once per cluster shape to one of the two.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/registry.h"
#include "exec/executor.h"

namespace atlas::exec {

/// An execution runtime. Implementations run a plan over a distributed
/// state, mutating the state in place and returning timing/traffic.
class ExecutorBackend {
 public:
  virtual ~ExecutorBackend() = default;

  /// The registry key this backend was built for ("inmemory", ...).
  virtual std::string name() const = 0;

  /// Called at Session construction with the cluster shape; throws
  /// atlas::Error when this backend cannot serve it, so capacity
  /// mistakes surface before any state is allocated.
  virtual void validate(const device::ClusterConfig&) const {}

  /// Builds the initial |0...0> state for `plan` (stage 0's partition
  /// as the initial layout).
  DistState initial_state(const ExecutionPlan& plan,
                          const device::Cluster& cluster) const {
    return exec::initial_state(plan, cluster);
  }

  /// True when this backend amortizes per-point work across a batch on
  /// `cfg`-shaped clusters: Session::sweep()/run_noisy() then route
  /// whole point sets through execute_batch() (one command list per
  /// stage, bind-many deltas) instead of fanning execute() out per
  /// point.
  virtual bool batched_launches(const device::ClusterConfig&) const {
    return false;
  }

  /// Runs `plan` once per batch point on `cluster`, mutating each
  /// point's state in place and returning one report per point, in
  /// order. Each point's `env` supplies values for any symbolic
  /// parameters the plan's gates carry (compile-once / bind-many): a
  /// dense slot table for canonical plans, a named binding for free user
  /// symbols, or both; it may be empty for fully-bound plans. Results
  /// must be bit-identical to running each point alone — batching is a
  /// scheduling optimization, never a semantic one.
  virtual std::vector<ExecutionReport> execute_batch(
      const ExecutionPlan& plan, const device::Cluster& cluster,
      const std::vector<BatchPoint>& points) const = 0;

  /// Runs `plan` over one state: a batch of one.
  ExecutionReport execute(const ExecutionPlan& plan,
                          const device::Cluster& cluster, DistState& state,
                          const ParamEnv& env) const {
    return std::move(
        execute_batch(plan, cluster, {BatchPoint{&state, env}}).front());
  }
};

using ExecutorRegistry = Registry<ExecutorBackend>;

/// The process-wide executor registry. Built-ins ("inmemory",
/// "device") are registered on first access; user backends may be
/// added any time with executor_registry().add(name, factory).
ExecutorRegistry& executor_registry();

/// The backend SessionConfig::executor names for `cfg`, validated
/// against it. "auto" resolves to "inmemory" when every shard has a GPU
/// and to "device" when offloading, with a typed capacity error when
/// the device staging arena does not fit either; any other name is
/// created from executor_registry().
std::shared_ptr<ExecutorBackend> make_executor(
    const std::string& name, const device::ClusterConfig& cfg);

}  // namespace atlas::exec
