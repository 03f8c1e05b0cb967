// Figure 13: pruning-threshold study — relative geomean cost (vs the
// greedy baseline) and preprocessing time of KERNELIZE as T sweeps,
// with ORDEREDKERNELIZE as the reference point. Claims to reproduce:
// cost decreases and time grows as T grows; the benefit flattens by
// T~500; even tiny T beats ORDEREDKERNELIZE on cost.

#include <cstdio>
#include <vector>

#include "common/parse.h"
#include "common/timer.h"
#include "kernelize/dp_kernelizer.h"
#include "kernelize/greedy.h"
#include "kernelize/ordered.h"
#include "util.h"

int main(int argc, char** argv) {
  using namespace atlas;
  using namespace atlas::kernelize;
  // The paper sweeps all 99 circuits; one size per family keeps this
  // bench in budget (pass a different size to widen).
  const int n = argc > 1 ? parse_arg(argv[0], "qubits", argv[1], 1, 62) : 30;

  bench::print_header(
      "Figure 13 — pruning threshold T: cost vs preprocessing time",
      "all 99 Table-I circuits, T in {4..4000}",
      "11 families at one size each, T in {4..2000}");

  const CostModel model = CostModel::default_model();

  // Reference: ORDEREDKERNELIZE (Atlas-Naive).
  {
    std::vector<double> rel;
    double time = 0;
    for (const auto& family : circuits::family_names()) {
      const Circuit c = circuits::make_family(family, n);
      const double greedy = kernelize_greedy(c, model).total_cost;
      Timer t;
      const double ordered = kernelize_ordered(c, model).total_cost;
      time += t.seconds();
      rel.push_back(ordered / greedy);
    }
    std::printf("%8s %16s %14s\n", "T", "rel geomean", "time(s)");
    std::printf("%8s %16.4f %14.3f   <- Atlas-Naive reference\n", "-",
                bench::geomean(rel), time);
  }

  for (int t_threshold : {4, 10, 20, 50, 100, 200, 500, 1000, 2000}) {
    DpOptions opt;
    opt.prune_threshold = t_threshold;
    std::vector<double> rel;
    double time = 0;
    for (const auto& family : circuits::family_names()) {
      const Circuit c = circuits::make_family(family, n);
      const double greedy = kernelize_greedy(c, model).total_cost;
      Timer t;
      const double dp = kernelize_dp(c, model, opt).total_cost;
      time += t.seconds();
      rel.push_back(dp / greedy);
    }
    std::printf("%8d %16.4f %14.3f\n", t_threshold, bench::geomean(rel),
                time);
  }
  std::printf("\n(paper: relative cost falls from ~0.64 toward ~0.58 as T "
              "grows; time grows exponentially; even T=4 beats "
              "Atlas-Naive)\n");
  return 0;
}
