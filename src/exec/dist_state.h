#pragma once

/// \file dist_state.h
/// The distributed state vector: 2^(R+G) shards of 2^L amplitudes,
/// each conceptually resident on one (virtual) GPU or in node DRAM,
/// together with the current qubit layout.

#include <vector>

#include "common/types.h"
#include "exec/layout.h"
#include "sim/state_vector.h"

namespace atlas {
class ThreadPool;
}  // namespace atlas

namespace atlas::exec {

/// Buffers for `count` shards of `size` amplitudes, for a pool fan-out
/// that fills one shard per task, allocated on the calling thread so
/// they stay in its malloc arena. Shards of at least 1 MiB are only
/// reserved: the task that fills one calls resize(size) on it first,
/// which zero-fills (first-touches) it in parallel. Smaller shards are
/// zero-filled here, where a fan-out costs more than it saves, and the
/// task's resize is a no-op.
std::vector<std::vector<Amp>> shard_buffers(int count, Index size);

class DistState {
 public:
  /// |0...0> distributed over 2^(num_qubits - layout.num_local) shards.
  /// With a `pool`, shards of at least 1 MiB are zero-filled by one pool
  /// task each (see shard_buffers); the result is the same either way.
  static DistState zero_state(const Layout& layout,
                              ThreadPool* pool = nullptr);

  /// Distributes a full state vector according to `layout`.
  static DistState scatter(const StateVector& sv, const Layout& layout);

  /// Reassembles the full state vector (tests and small examples).
  StateVector gather() const;

  int num_qubits() const { return layout_.num_qubits(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  Index shard_size() const { return Index{1} << layout_.num_local; }

  Layout& layout() { return layout_; }
  const Layout& layout() const { return layout_; }

  std::vector<Amp>& shard(int s) { return shards_[s]; }
  const std::vector<Amp>& shard(int s) const { return shards_[s]; }

  std::vector<std::vector<Amp>>& shards() { return shards_; }

 private:
  Layout layout_;
  std::vector<std::vector<Amp>> shards_;
};

}  // namespace atlas::exec
