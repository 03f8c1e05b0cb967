#pragma once

/// \file cluster.h
/// The simulated multi-node GPU cluster (paper Section II architectural
/// model): 2^G nodes x 2^R GPUs, each GPU holding a 2^L-amplitude
/// shard. Shard buffers live in host memory; the topology determines
/// how data movement is metered and how work is scheduled.

#include <memory>

#include "common/error.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "device/comm.h"

namespace atlas::device {

struct ClusterConfig {
  int local_qubits = 0;     // L: log2 amplitudes per GPU shard
  int regional_qubits = 0;  // R: log2 GPUs (or DRAM shards) per node
  int global_qubits = 0;    // G: log2 nodes
  /// Physical GPUs per node. Normally 2^R; with DRAM offloading it may
  /// be smaller — shards then swap through the available GPUs
  /// (Section VII-C).
  int gpus_per_node = 0;
  /// Worker threads for per-shard parallelism (0 = hardware).
  int num_threads = 0;

  int num_nodes() const { return 1 << global_qubits; }
  int shards_per_node() const { return 1 << regional_qubits; }
  int num_shards() const { return num_nodes() * shards_per_node(); }
  int total_gpus() const { return num_nodes() * gpus_per_node; }
  int total_qubits() const {
    return local_qubits + regional_qubits + global_qubits;
  }
  /// Shards outnumber GPUs, so they swap through them: exec::Executor
  /// then stages every shard through a GPU slot (exec::DeviceRunner).
  bool offloading() const { return gpus_per_node < shards_per_node(); }

  void validate() const;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config)
      : config_(config), pool_(std::make_unique<ThreadPool>(
                             config.num_threads == 0
                                 ? 0
                                 : static_cast<std::size_t>(config.num_threads))) {
    config.validate();
  }

  const ClusterConfig& config() const { return config_; }
  ThreadPool& pool() const { return *pool_; }

  int node_of_shard(int shard) const {
    return shard >> config_.regional_qubits;
  }

 private:
  ClusterConfig config_;
  std::unique_ptr<ThreadPool> pool_;
};

inline void ClusterConfig::validate() const {
  ATLAS_CHECK(local_qubits >= 3 && local_qubits < 40,
              "local qubits out of range: " << local_qubits);
  ATLAS_CHECK(regional_qubits >= 0 && global_qubits >= 0,
              "negative machine dimensions");
  ATLAS_CHECK(gpus_per_node >= 1 && gpus_per_node <= shards_per_node(),
              "gpus_per_node must be in [1, 2^R]");
}

}  // namespace atlas::device
