#include "staging/stage.h"

#include <algorithm>
#include <unordered_set>

namespace atlas::staging {
namespace {

std::unordered_set<Qubit> to_set(const std::vector<Qubit>& v) {
  return {v.begin(), v.end()};
}

}  // namespace

bool QubitPartition::is_local(Qubit q) const {
  return std::find(local.begin(), local.end(), q) != local.end();
}

bool QubitPartition::is_global(Qubit q) const {
  return std::find(global.begin(), global.end(), q) != global.end();
}

double communication_cost(const std::vector<Stage>& stages,
                          double cost_factor) {
  double cost = 0;
  for (std::size_t k = 1; k < stages.size(); ++k) {
    const auto prev_local = to_set(stages[k - 1].partition.local);
    const auto prev_global = to_set(stages[k - 1].partition.global);
    for (Qubit q : stages[k].partition.local)
      if (!prev_local.count(q)) cost += 1.0;
    for (Qubit q : stages[k].partition.global)
      if (!prev_global.count(q)) cost += cost_factor;
  }
  return cost;
}

}  // namespace atlas::staging
