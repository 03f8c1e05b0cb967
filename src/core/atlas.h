#pragma once

/// \file atlas.h
/// The Atlas public API. Mirrors the paper's Algorithm 1:
///
///   PARTITION = STAGE (ILP / specialized B&B, Section IV)
///             + KERNELIZE per stage (DP, Section V)
///   EXECUTE   = reshard between stages + per-shard kernel launches
///   SIMULATE  = PARTITION then EXECUTE
///
/// Quick start — the Session engine API (core/session.h):
///
///   atlas::SessionConfig cfg;
///   cfg.cluster.local_qubits = 20;    // 2^20 amplitudes per GPU
///   cfg.cluster.regional_qubits = 2;  // 4 GPUs per node
///   cfg.cluster.global_qubits = 1;    // 2 nodes
///   cfg.cluster.gpus_per_node = 4;
///   cfg.stager = "bnb";               // pick any registered backend
///   atlas::Session session(cfg);      // validates cfg up front
///
///   // Asynchronous submission over the session's dispatch pool:
///   auto f = session.submit(atlas::circuits::qft(23));
///   atlas::SimulationResult result = f.get();
///   // result carries the report (wall/modeled times, comm stats) and
///   // answers observable queries through its typed facade:
///   //   result.probability(i), result.expectation_z(q),
///   //   result.marginal({0,1}), result.sample(1024, rng)
///
///   // Plans are reusable: a second simulate()/submit() of a
///   // structurally identical circuit skips PARTITION via the LRU
///   // plan cache (keys are value-independent; plan() is the
///   // uncached PARTITION).
///   session.simulate(atlas::circuits::qft(23));
///   assert(session.plan_cache_stats().hits >= 1);
///
/// Variational workloads compile once and bind many (core/compiled.h):
///
///   atlas::Circuit ansatz = ...;             // Gate::rx(q, Param::symbol("theta"))
///   atlas::CompiledCircuit cc = session.compile(ansatz);  // 1 plan
///   session.run(cc, {{"theta", 0.3}});                    // bind + execute
///   session.sweep(cc, bindings);             // fan bindings across the pool
///
/// Backends live in string-keyed registries — staging::stager_registry()
/// ("ilp", "bnb", "snuqs", "auto"), kernelize::kernelizer_registry()
/// ("dp", "ordered", "greedy", "best"), exec::executor_registry()
/// ("inmemory", "device"; "auto" picks one per cluster shape) — and new
/// engines plug in without touching core headers:
///
///   staging::stager_registry().add("mine", [] { return
///       std::make_shared<MyStager>(); });
///   cfg.stager = "mine";
///
/// The synchronous single-circuit Simulator below is a thin
/// compatibility shim over Session.

#include <memory>

#include "core/session.h"

namespace atlas {

/// Legacy facade: synchronous, single-circuit, default backends. New
/// code should hold a Session (async submission, plan cache, backend
/// selection); this shim simply forwards to one.
class Simulator {
 public:
  explicit Simulator(SimulatorConfig config)
      : session_(SessionConfig(std::move(config))) {}

  const SimulatorConfig& config() const { return session_.config(); }
  const device::Cluster& cluster() const { return session_.cluster(); }

  /// PARTITION: stages the circuit and kernelizes each stage, uncached.
  /// The plan is state-independent and reusable across runs (Section
  /// III).
  exec::ExecutionPlan plan(const Circuit& circuit) const {
    return *session_.plan(circuit);
  }

  /// EXECUTE: runs a plan over an existing distributed state.
  exec::ExecutionReport execute(const exec::ExecutionPlan& plan,
                                exec::DistState& state) const {
    return session_.execute(plan, state);
  }

  /// SIMULATE: plan + execute from |0...0>.
  SimulationResult simulate(const Circuit& circuit) const {
    return session_.simulate(circuit);
  }

 private:
  Session session_;
};

}  // namespace atlas
