// Figure 6: simulation-time breakdown — average communication time and
// its share of total time across the 11 benchmark circuits, per GPU
// count. The paper's shape: computation dominates within one node
// (<= 4 GPUs); once the machine spans nodes, inter-node all-to-alls
// dominate (~60-66%).

#include <cstdio>
#include <vector>

#include "common/parse.h"
#include "util.h"

int main(int argc, char** argv) {
  using namespace atlas;
  const int local = argc > 1 ? parse_arg(argv[0], "local", argv[1], 3, 39) : 14;

  bench::print_header(
      "Figure 6 — simulation time breakdown (communication share)",
      "average over 11 circuits, 1..256 GPUs, measured on Perlmutter",
      "simulated cluster, L=14, 1..16 virtual GPUs, modeled link times");

  std::printf("%5s %12s %12s %8s\n", "GPUs", "total(ms)", "comm(ms)",
              "comm%");
  for (int nl = 0; nl <= 6; ++nl) {
    double total = 0, comm = 0;
    for (const auto& family : circuits::family_names()) {
      const SessionConfig cfg = bench::scaled_config(local, nl);
      const Circuit c = circuits::make_family(family, local + nl);
      const auto run = bench::run_atlas(c, cfg);
      total += run.projected_seconds;
      comm += run.projected_comm_seconds;
    }
    const int families = static_cast<int>(circuits::family_names().size());
    total /= families;
    comm /= families;
    std::printf("%5d %12.3f %12.3f %7.1f%%\n", 1 << nl, total * 1e3,
                comm * 1e3, 100.0 * comm / total);
  }
  std::printf("\n(paper: 0%% at 1 GPU, ~13-22%% within a node, ~52-66%% once "
              "inter-node links appear)\n");
  return 0;
}
