#include "exec/backend.h"

#include "common/error.h"
#include "exec/device_executor.h"

namespace atlas::exec {
namespace {

class InMemoryBackend final : public ExecutorBackend {
 public:
  std::string name() const override { return "inmemory"; }
  void validate(const device::ClusterConfig& cfg) const override {
    ATLAS_CHECK(!cfg.offloading(),
                "the inmemory executor needs one GPU per shard: "
                    << cfg.shards_per_node() << " shards/node but only "
                    << cfg.gpus_per_node
                    << " gpus/node; use the 'device' executor");
  }
  std::vector<ExecutionReport> execute_batch(
      const ExecutionPlan& plan, const device::Cluster& cluster,
      const std::vector<BatchPoint>& points) const override {
    validate(cluster.config());  // guards direct registry users too
    InPlaceRunner runner(cluster);
    return execute_plan(plan, cluster, points, runner);
  }
};

}  // namespace

ExecutorRegistry& executor_registry() {
  static ExecutorRegistry* registry = [] {
    auto* r = new ExecutorRegistry("executor");
    r->add("inmemory", [] { return std::make_shared<InMemoryBackend>(); });
    r->add("device", [] { return std::make_shared<DeviceExecutor>(); });
    return r;
  }();
  return *registry;
}

std::shared_ptr<ExecutorBackend> make_executor(
    const std::string& name, const device::ClusterConfig& cfg) {
  if (name != "auto") {
    std::shared_ptr<ExecutorBackend> backend =
        executor_registry().create(name);
    backend->validate(cfg);
    return backend;
  }
  if (!cfg.offloading()) return executor_registry().create("inmemory");
  // Offloading rules out "inmemory" by definition, so if the device
  // staging arena does not fit either, there is nothing left to pick.
  std::shared_ptr<ExecutorBackend> device = executor_registry().create("device");
  try {
    device->validate(cfg);
  } catch (const Error& e) {
    throw Error(
        std::string("no executor backend can serve this cluster shape: "
                    "'inmemory' needs one GPU per shard (") +
            std::to_string(cfg.shards_per_node()) + " shards/node, " +
            std::to_string(cfg.gpus_per_node) +
            " gpus/node) and 'device' refused it: " + e.what(),
        ErrorCode::capacity);
  }
  return device;
}

}  // namespace atlas::exec
