#pragma once

/// \file comm.h
/// Communication cost model and metering for the simulated GPU
/// cluster. The substrate performs all data movement for real (host
/// memcpy between shard buffers) and *meters* every byte by the link
/// class it would traverse on the modeled machine: intra-GPU
/// (shard-local), intra-node (NVLink-class), inter-node
/// (Slingshot-class), or GPU<->DRAM (offloading). Modeled times use
/// Perlmutter-like constants so benchmark curves keep the paper's
/// shape even though the wall clock runs on one host.

#include <cstdint>

#include "common/types.h"

namespace atlas::device {

struct CommCostModel {
  double intra_node_bw = 0;   // bytes/s per GPU (NVLink-class)
  double inter_node_bw = 0;   // bytes/s per node (NIC-class)
  double offload_bw = 0;      // bytes/s GPU<->DRAM (PCIe-class)
  double intra_node_latency = 0;  // seconds per all-to-all round
  double inter_node_latency = 0;
  double gpu_mem_bw = 0;      // bytes/s streamed by kernels on a GPU

  /// Perlmutter-flavored constants: A100-40GB (1.5 TB/s HBM), NVLink3
  /// (~200 GB/s effective per GPU), Slingshot 200 Gb/s (~25 GB/s per
  /// node), PCIe4 x16 (~25 GB/s).
  static CommCostModel perlmutter_like();
};

/// Byte counters, accumulated by the executor.
struct CommStats {
  std::uint64_t intra_gpu_bytes = 0;   // moved within one shard
  std::uint64_t intra_node_bytes = 0;  // between GPUs of one node
  std::uint64_t inter_node_bytes = 0;  // between nodes
  std::uint64_t offload_bytes = 0;     // DRAM <-> GPU staging
  std::uint64_t kernel_bytes = 0;      // streamed by compute kernels
  int alltoall_rounds = 0;

  CommStats& operator+=(const CommStats& o);
  bool operator==(const CommStats&) const = default;

  /// Modeled seconds spent communicating (intra + inter + offload).
  double modeled_comm_seconds(const CommCostModel& m, int gpus,
                              int nodes) const;

  /// Modeled seconds spent in kernels (memory-bandwidth bound).
  double modeled_compute_seconds(const CommCostModel& m, int gpus) const;
};

}  // namespace atlas::device
