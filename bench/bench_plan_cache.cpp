// Plan-cache microbenchmark: a cold compile() (plan-cache miss: STAGE +
// KERNELIZE) vs a warm one (hit) on the Session API, for circuits::qft
// and a random circuit family. Plans are state-independent and
// reusable across runs (paper Section III); a cache hit skips
// PARTITION and pays only canonicalization and the slot table, so
// repeated workloads — parameter sweeps, shot batches, re-submissions
// of a popular circuit — skip preprocessing entirely.
//
//   ./build/bench_plan_cache [max_qubits]

#include <cstdio>
#include <vector>

#include "common/parse.h"
#include "common/timer.h"
#include "util.h"

int main(int argc, char** argv) {
  using namespace atlas;
  const int n_lo = 16;
  const int n_hi =
      argc > 1 ? parse_arg(argv[0], "max_qubits", argv[1], n_lo, 43) : 24;
  constexpr int kHitReps = 1000;

  bench::print_header(
      "plan cache — cold compile() vs cache hit",
      "(no paper counterpart; Section III notes plans are reusable)",
      "qft and random circuits, compile() miss vs LRU hit on this host");

  std::printf("\n%-8s %7s %7s | %12s %12s %10s\n", "family", "qubits",
              "gates", "cold_ms", "hit_us", "speedup");
  for (int n = n_lo; n <= n_hi; n += 4) {
    SessionConfig cfg = bench::scaled_config(n - 4, 4);
    const Session session(cfg);
    const std::vector<Circuit> cases = {
        circuits::qft(n), circuits::random_circuit(n, 6 * n, /*seed=*/17)};
    for (const Circuit& c : cases) {
      Timer cold_timer;
      (void)session.compile(c);
      const double cold_s = cold_timer.seconds();

      Timer hit_timer;
      for (int r = 0; r < kHitReps; ++r) (void)session.compile(c);
      const double hit_s = hit_timer.seconds() / kHitReps;

      std::printf("%-8s %7d %7d | %12.2f %12.2f %10s\n", c.name().c_str(), n,
                  c.num_gates(), cold_s * 1e3, hit_s * 1e6,
                  (std::to_string(static_cast<long>(cold_s / hit_s)) + "x")
                      .c_str());
    }
    const PlanCacheStats stats = session.plan_cache_stats();
    if (stats.hits != 2 * kHitReps || stats.misses != cases.size())
      std::printf("  WARNING: unexpected cache counters (hits=%llu "
                  "misses=%llu)\n",
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses));
  }
  std::printf("\nhit cost is canonicalization, a fingerprint pass and a locked\n"
              "hash-map lookup; cold cost grows with STAGE+KERNELIZE.\n");
  return 0;
}
