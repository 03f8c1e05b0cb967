// QFT round-trip demo: run the quantum Fourier transform followed by
// its inverse on a distributed state and verify the state returns to
// |0...0> — exercising multi-stage execution and the all-to-all
// resharding path on a circuit family from the paper's benchmark set.
//
//   ./build/examples/qft_demo [num_qubits]   (default 18)

#include <cstdio>

#include "circuits/families.h"
#include "common/parse.h"
#include "core/session.h"

int main(int argc, char** argv) {
  using namespace atlas;
  const int n =
      argc > 1 ? parse_arg(argv[0], "num_qubits", argv[1], 8, 26) : 18;

  SessionConfig cfg;
  cfg.cluster.local_qubits = n - 4;
  cfg.cluster.regional_qubits = 2;
  cfg.cluster.global_qubits = 2;
  cfg.cluster.gpus_per_node = 4;

  // qft then iqft: the composition is the identity.
  const Circuit fwd = circuits::qft(n);
  const Circuit inv = circuits::iqft(n);
  Circuit round_trip(n, "qft-roundtrip");
  for (const Gate& g : fwd.gates()) round_trip.add(g);
  for (const Gate& g : inv.gates()) round_trip.add(g);

  const Session session(cfg);
  std::printf("qft+iqft on %d qubits (%d gates), 16 virtual GPUs...\n", n,
              round_trip.num_gates());
  SimulationResult result = session.simulate(round_trip);

  const StateVector sv = result.state.gather();
  const double p0 = std::norm(sv[0]);
  std::printf("stages: %zu   wall: %.1f ms   inter-node: %.2f MiB\n",
              result.plan->stages.size(), result.report.wall_seconds * 1e3,
              result.report.totals.inter_node_bytes / 1048576.0);
  std::printf("|<0|QFT^-1 QFT|0>|^2 = %.12f %s\n", p0,
              p0 > 0.999999 ? "(round trip verified)" : "(MISMATCH!)");
  return p0 > 0.999999 ? 0 : 1;
}
