#pragma once

/// \file remap.h
/// State repartitioning between stages (the SHARD step of Algorithm 1):
/// an all-to-all exchange that realizes a new qubit layout. The move is
/// a bit permutation of storage indices, walked per destination shard
/// in cache-line units: the local bits split into tile bits, copied
/// together, and outer bits, stepped in Gray-code order so each step
/// flips one destination and one source index bit. When the map fixes
/// the low bits (a run of at least 64 B) the tile is that run and moves
/// with one memcpy; otherwise it is destination bits [0, 2) plus the
/// bits that feed source bits [0, 2), so whole lines are read and
/// written. Destination shards whose shard bits feed those source bits
/// are walked by one task together, while a task per pool thread
/// remains. Bytes are metered per (source shard, destination shard)
/// pair by link class.
///
/// Allocation: destination shards come from shard_buffers() on the
/// calling thread; shards of at least 1 MiB are only reserved there and
/// zero-filled (first-touched) by the pool task that fills them.

#include "device/cluster.h"
#include "exec/dist_state.h"

namespace atlas::exec {

/// Permutes `state` into `new_layout`. Returns the communication
/// metering of the exchange.
device::CommStats remap(DistState& state, const Layout& new_layout,
                        const device::Cluster& cluster);

}  // namespace atlas::exec
