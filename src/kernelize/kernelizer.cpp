#include "kernelize/kernelizer.h"

#include "kernelize/greedy.h"
#include "kernelize/ordered.h"

namespace atlas::kernelize {
namespace {

class DpKernelizer final : public Kernelizer {
 public:
  std::string name() const override { return "dp"; }
  Kernelization kernelize(const Circuit& circuit, const CostModel& model,
                          const DpOptions& options) const override {
    return kernelize_dp(circuit, model, options);
  }
};

class OrderedKernelizer final : public Kernelizer {
 public:
  std::string name() const override { return "ordered"; }
  Kernelization kernelize(const Circuit& circuit, const CostModel& model,
                          const DpOptions&) const override {
    return kernelize_ordered(circuit, model);
  }
};

class GreedyKernelizer final : public Kernelizer {
 public:
  std::string name() const override { return "greedy"; }
  Kernelization kernelize(const Circuit& circuit, const CostModel& model,
                          const DpOptions&) const override {
    return kernelize_greedy(circuit, model);
  }
};

class BestKernelizer final : public Kernelizer {
 public:
  std::string name() const override { return "best"; }
  Kernelization kernelize(const Circuit& circuit, const CostModel& model,
                          const DpOptions& options) const override {
    return kernelize_best(circuit, model, options);
  }
};

}  // namespace

KernelizerRegistry& kernelizer_registry() {
  static KernelizerRegistry* registry = [] {
    auto* r = new KernelizerRegistry("kernelizer");
    r->add("dp", [] { return std::make_shared<DpKernelizer>(); });
    r->add("ordered", [] { return std::make_shared<OrderedKernelizer>(); });
    r->add("greedy", [] { return std::make_shared<GreedyKernelizer>(); });
    r->add("best", [] { return std::make_shared<BestKernelizer>(); });
    return r;
  }();
  return *registry;
}

Kernelization kernelize_best(const Circuit& circuit, const CostModel& model,
                             const DpOptions& options) {
  Kernelization dp = kernelize_dp(circuit, model, options);
  Kernelization ordered = kernelize_ordered(circuit, model);
  return dp.total_cost <= ordered.total_cost ? std::move(dp)
                                             : std::move(ordered);
}

}  // namespace atlas::kernelize
