#include "staging/registry.h"

#include "common/error.h"
#include "staging/snuqs.h"

namespace atlas::staging {
namespace {

class IlpStager final : public Stager {
 public:
  std::string name() const override { return "ilp"; }
  StagedCircuit stage(const Circuit& circuit, const MachineShape& shape,
                      const StagingOptions& options) const override {
    auto staged = stage_with_ilp(circuit, shape, options.ilp);
    ATLAS_CHECK(staged.has_value(),
                "ILP stager exhausted its node budget; use the bnb engine");
    return *std::move(staged);
  }
};

class BnbStager final : public Stager {
 public:
  std::string name() const override { return "bnb"; }
  StagedCircuit stage(const Circuit& circuit, const MachineShape& shape,
                      const StagingOptions& options) const override {
    return stage_with_bnb(circuit, shape, options.bnb);
  }
};

class SnuqsStager final : public Stager {
 public:
  std::string name() const override { return "snuqs"; }
  StagedCircuit stage(const Circuit& circuit, const MachineShape& shape,
                      const StagingOptions&) const override {
    return stage_with_snuqs(circuit, shape);
  }
};

class AutoStager final : public Stager {
 public:
  std::string name() const override { return "auto"; }
  StagedCircuit stage(const Circuit& circuit, const MachineShape& shape,
                      const StagingOptions& options) const override {
    // The general MIP solver is exact but dense; reserve it for small
    // reduced models and use the specialized search otherwise.
    const ReducedCircuit rc = reduce(circuit);
    if (static_cast<int>(rc.gates.size()) <= 12 && circuit.num_qubits() <= 9) {
      auto staged = stage_with_ilp(circuit, shape, options.ilp);
      if (staged.has_value()) return *std::move(staged);
    }
    return stage_with_bnb(circuit, shape, options.bnb);
  }
};

}  // namespace

StagerRegistry& stager_registry() {
  static StagerRegistry* registry = [] {
    auto* r = new StagerRegistry("stager");
    r->add("ilp", [] { return std::make_shared<IlpStager>(); });
    r->add("bnb", [] { return std::make_shared<BnbStager>(); });
    r->add("snuqs", [] { return std::make_shared<SnuqsStager>(); });
    r->add("auto", [] { return std::make_shared<AutoStager>(); });
    return r;
  }();
  return *registry;
}

}  // namespace atlas::staging
