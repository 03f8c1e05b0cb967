// Quickstart: build circuits, submit them concurrently to a Session on
// a simulated 2-node x 4-GPU cluster, and inspect the results — plus a
// plan-cache hit on resubmission and a compile-once / bind-many
// parameter sweep with the typed result facade.
//
//   ./build/quickstart

#include <cstdio>
#include <vector>

#include "core/session.h"
#include "ir/gate.h"

int main() {
  using namespace atlas;

  // A 13-qubit GHZ-like circuit with some phase structure.
  Circuit circuit(13, "quickstart");
  circuit.add(Gate::h(0));
  for (int q = 1; q < 13; ++q) circuit.add(Gate::cx(q - 1, q));
  for (int q = 0; q < 13; ++q) circuit.add(Gate::t(q));
  for (int q = 1; q < 13; ++q) circuit.add(Gate::cx(q - 1, q));
  circuit.add(Gate::h(0));

  // Machine shape: 2^10 amplitudes per GPU, 4 GPUs per node (2
  // regional qubits), 2 nodes (1 global qubit). The Session validates
  // this shape up front; with a GPU per shard, the executor replays
  // shards in place.
  SessionConfig cfg;
  cfg.cluster.local_qubits = 10;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 4;

  Session session(cfg);

  // Asynchronous submission on the session's dispatch pool.
  auto pending = session.submit(circuit);
  SimulationResult result = pending.get();

  // Plans are reusable (paper Section III): recompiling a structurally
  // identical circuit is served from the session's LRU cache.
  session.compile(circuit);

  std::printf("quickstart: %d qubits, %d gates\n", circuit.num_qubits(),
              circuit.num_gates());
  std::printf("plan: %zu stage(s), staging comm cost %.1f, kernel cost %.2f\n",
              result.plan->stages.size(), result.plan->staging_comm_cost,
              result.plan->kernel_cost_total);
  for (std::size_t s = 0; s < result.plan->stages.size(); ++s) {
    const auto& st = result.plan->stages[s];
    std::printf("  stage %zu: %d gates in %zu kernels\n", s,
                st.subcircuit.num_gates(), st.kernels.kernels.size());
  }
  std::printf("executed in %.3f ms wall (%.1f%% communication)\n",
              result.report.wall_seconds * 1e3,
              100.0 * result.report.comm_seconds /
                  std::max(1e-12, result.report.wall_seconds));

  const PlanCacheStats cache = session.plan_cache_stats();
  std::printf("plan cache: %llu hit(s), %llu miss(es)\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));

  // Largest amplitudes of the final state.
  const StateVector sv = result.state.gather();
  std::printf("top amplitudes:\n");
  for (Index i = 0; i < sv.size(); ++i) {
    if (std::abs(sv[i]) > 0.2) {
      std::printf("  |%04llx>  % .4f %+.4fi   (p=%.3f)\n",
                  static_cast<unsigned long long>(i), sv[i].real(),
                  sv[i].imag(), std::norm(sv[i]));
    }
  }

  // --- parameter sweep: compile once, bind many --------------------
  // A variational ansatz over two symbols. Staging + kernelization run
  // exactly once, in compile(); every binding re-uses the plan.
  Circuit ansatz(13, "quickstart_ansatz");
  const Param theta = Param::symbol("theta");
  const Param gamma = Param::symbol("gamma");
  for (int q = 0; q < 13; ++q) ansatz.add(Gate::h(q));
  for (int q = 0; q + 1 < 13; ++q) ansatz.add(Gate::rzz(q, q + 1, gamma));
  for (int q = 0; q < 13; ++q) ansatz.add(Gate::rx(q, theta));

  const CompiledCircuit compiled = session.compile(ansatz);
  std::vector<ParamBinding> bindings;
  for (int i = 0; i < 8; ++i)
    bindings.push_back(
        ParamBinding{}.set("theta", 0.2 * i).set("gamma", 0.5 - 0.1 * i));
  const std::vector<SimulationResult> sweep =
      session.sweep(compiled, bindings);

  // The typed result facade answers observable queries without ever
  // touching the distributed state directly.
  std::printf("sweep over %zu bindings (%zu parameter slots, 1 plan):\n",
              sweep.size(), compiled.param_slots().size());
  for (std::size_t i = 0; i < sweep.size(); ++i)
    std::printf("  theta=%.2f  <Z_0> = % .4f   p(|0...0>) = %.4f\n",
                0.2 * static_cast<double>(i), sweep[i].expectation_z(0),
                sweep[i].probability(0));
  return 0;
}
