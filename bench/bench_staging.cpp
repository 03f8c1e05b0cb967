// Figures 9 and 12: number of stages, Atlas versus the SnuQS
// heuristic, as the number of local qubits varies. Geometric mean over
// the 11 benchmark families at 31 qubits (Fig. 9) and 42 qubits
// (Fig. 12). Claims to reproduce: Atlas never exceeds SnuQS, and
// SnuQS is non-monotone (more local qubits can *worsen* its staging)
// while Atlas is monotone.

#include <cstdio>
#include <vector>

#include "staging/snuqs.h"
#include "staging/stager.h"
#include "util.h"

namespace {

void sweep(int num_qubits, int min_local, int step) {
  using namespace atlas;
  std::printf("\n--- %d qubits ---\n", num_qubits);
  std::printf("%6s %14s %14s\n", "local", "atlas(geomean)", "snuqs(geomean)");
  double prev_atlas = 0;
  for (int local = min_local; local <= num_qubits; local += step) {
    std::vector<double> atlas_stages, snuqs_stages;
    for (const auto& family : circuits::family_names()) {
      const Circuit c = circuits::make_family(family, num_qubits);
      staging::MachineShape shape;
      shape.num_local = local;
      shape.num_global =
          std::max(0, std::min(num_qubits - local - 2, num_qubits - local));
      shape.num_regional = num_qubits - local - shape.num_global;
      const auto atlas_staged = staging::stage_with_bnb(c, shape);
      const auto snuqs_staged = staging::stage_with_snuqs(c, shape);
      atlas_stages.push_back(static_cast<double>(atlas_staged.stages.size()));
      snuqs_stages.push_back(static_cast<double>(snuqs_staged.stages.size()));
    }
    const double ga = atlas::bench::geomean(atlas_stages);
    const double gs = atlas::bench::geomean(snuqs_stages);
    std::printf("%6d %14.2f %14.2f%s\n", local, ga, gs,
                gs < ga - 1e-9 ? "  (!!)" : "");
    prev_atlas = ga;
  }
  (void)prev_atlas;
}

}  // namespace

int main() {
  atlas::bench::print_header(
      "Figures 9 & 12 — number of stages: Atlas vs SnuQS heuristic",
      "11 families at 31 qubits (L=15..31) and 42 qubits (L=18..42), "
      "<=2 regional qubits",
      "same circuits and machine shapes (staging only; no simulation)");

  sweep(31, 15, 1);   // Figure 9
  sweep(42, 18, 3);   // Figure 12
  std::printf("\n(paper: Atlas' geomean is at or below SnuQS everywhere; "
              "SnuQS worsens from L=23 to L=24 at 31 qubits)\n");
  return 0;
}
