#pragma once

/// \file util.h
/// Shared helpers for the benchmark harnesses. Every bench binary
/// regenerates one table or figure of the paper at a scale that fits
/// the host; each prints a header stating the substitution (paper
/// scale -> bench scale).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "circuits/families.h"
#include "core/session.h"

namespace atlas::bench {

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

/// Machine config mirroring the paper's: 4 GPUs per node, `nonlocal`
/// qubits split regional-first (at most 2 regional, as in Section
/// VII-B), the rest global.
inline SessionConfig scaled_config(int local, int nonlocal, int threads = 1) {
  SessionConfig cfg;
  cfg.cluster.local_qubits = local;
  cfg.cluster.regional_qubits = std::min(2, nonlocal);
  cfg.cluster.global_qubits = nonlocal - cfg.cluster.regional_qubits;
  cfg.cluster.gpus_per_node = 1 << cfg.cluster.regional_qubits;
  cfg.cluster.num_threads = threads;
  // Benchmarks favor a moderate pruning threshold; Fig. 13 shows the
  // cost difference vs T=500 is within ~1% while preprocessing is 5x
  // faster.
  cfg.kernelize.prune_threshold = 100;
  return cfg;
}

/// The paper evaluates with 28 local qubits; the host runs scaled-down
/// shards. All byte traffic scales exactly linearly with 2^L, so the
/// projected numbers multiply the measured counters by 2^(28-L) and
/// re-apply the link model — at that scale bandwidth, not latency,
/// dominates, exactly as on the real machine.
inline constexpr int kPaperLocalQubits = 28;

struct RunOutcome {
  double wall_seconds = 0;
  double modeled_seconds = 0;       // at bench scale
  double projected_seconds = 0;     // bytes projected to L=28
  double projected_comm_seconds = 0;
  std::size_t stages = 0;
};

inline RunOutcome make_outcome(const exec::ExecutionReport& report,
                               const SessionConfig& cfg,
                               std::size_t stages) {
  const int gpus = cfg.cluster.num_nodes() * cfg.cluster.gpus_per_node;
  const int nodes = cfg.cluster.num_nodes();
  RunOutcome out;
  out.wall_seconds = report.wall_seconds;
  out.modeled_seconds = report.modeled_seconds(cfg.comm, gpus, nodes);
  device::CommStats scaled = report.totals;
  const double f = std::exp2(kPaperLocalQubits - cfg.cluster.local_qubits);
  scaled.intra_gpu_bytes = static_cast<std::uint64_t>(scaled.intra_gpu_bytes * f);
  scaled.intra_node_bytes = static_cast<std::uint64_t>(scaled.intra_node_bytes * f);
  scaled.inter_node_bytes = static_cast<std::uint64_t>(scaled.inter_node_bytes * f);
  scaled.offload_bytes = static_cast<std::uint64_t>(scaled.offload_bytes * f);
  scaled.kernel_bytes = static_cast<std::uint64_t>(scaled.kernel_bytes * f);
  out.projected_comm_seconds =
      scaled.modeled_comm_seconds(cfg.comm, gpus, nodes);
  out.projected_seconds = out.projected_comm_seconds +
                          scaled.modeled_compute_seconds(cfg.comm, gpus);
  out.stages = stages;
  return out;
}

inline RunOutcome run_atlas(const Circuit& c, const SessionConfig& cfg) {
  const Session session(cfg);
  const SimulationResult r = session.simulate(c);
  return make_outcome(r.report, cfg, r.plan->stages.size());
}

inline RunOutcome run_base(baselines::BaselineKind kind, const Circuit& c,
                           const SessionConfig& cfg) {
  const auto r = baselines::run_baseline(kind, c, cfg);
  return make_outcome(r.report, cfg, r.plan.stages.size());
}

inline void print_header(const char* experiment, const char* paper_setup,
                         const char* bench_setup) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", experiment);
  std::printf("  paper setup: %s\n", paper_setup);
  std::printf("  this bench : %s\n", bench_setup);
  std::printf("==============================================================="
              "=\n");
}

}  // namespace atlas::bench
