#include "kernelize/kernelizer.h"

namespace atlas::kernelize {

Kernelization kernelize_best(const Circuit& circuit, const CostModel& model,
                             const DpOptions& options) {
  Kernelization dp = kernelize_dp(circuit, model, options);
  Kernelization ordered = kernelize_ordered(circuit, model);
  return dp.total_cost <= ordered.total_cost ? std::move(dp)
                                             : std::move(ordered);
}

}  // namespace atlas::kernelize
