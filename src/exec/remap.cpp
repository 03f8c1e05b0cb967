#include "exec/remap.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"

namespace atlas::exec {
namespace {

/// log2 of a cache line in amplitudes: 4 x 16 B = 64 B.
constexpr int kLineBits = 2;

}  // namespace

device::CommStats remap(DistState& state, const Layout& new_layout,
                        const device::Cluster& cluster) {
  const Layout& old_layout = state.layout();
  const int n = state.num_qubits();
  const int L = new_layout.num_local;
  ATLAS_CHECK(old_layout.num_local == L,
              "remap cannot change the local qubit count");
  ATLAS_CHECK(new_layout.num_qubits() == n, "layout size mismatch");

  // Composite map: dst storage index -> src storage index.
  //   src = spread_bits(dst, bitmap) ^ xor_const
  // where bitmap[p] = old physical position of the logical qubit that
  // the new layout places at physical position p, and xor_const folds
  // both layouts' shard_xor corrections through the permutation.
  std::vector<int> bitmap(n);
  for (int p = 0; p < n; ++p)
    bitmap[p] = old_layout.phys_of_logical[new_layout.logical_of_phys[p]];
  const auto spread = [&](Index d) { return spread_bits(d, bitmap); };
  const Index xor_const =
      (old_layout.shard_xor << L) ^ spread(new_layout.shard_xor << L);

  device::CommStats stats;
  // Identity fast path: nothing moves.
  bool identity = xor_const == 0;
  for (int p = 0; p < n && identity; ++p) identity = bitmap[p] == p;
  if (identity) {
    state.layout() = new_layout;
    return stats;
  }

  const Index shard_size = state.shard_size();
  const Index mask = shard_size - 1;
  const int num_shards = state.num_shards();

  // Metering per (source shard, destination shard) pair. Inside
  // destination shard s1 only the local bits whose source bit is
  // non-local change the source shard, so s1 takes shard_size >> m
  // amplitudes from each of the 2^m shards those m bits reach.
  std::vector<int> shard_flips;
  for (int p = 0; p < L; ++p)
    if (bitmap[p] >= L) shard_flips.push_back(bitmap[p] - L);
  const std::uint64_t pair_bytes =
      (shard_size >> shard_flips.size()) * sizeof(Amp);
  for (int s1 = 0; s1 < num_shards; ++s1) {
    const Index base = (spread(static_cast<Index>(s1) << L) ^ xor_const) >> L;
    for (Index v = 0; v < (Index{1} << shard_flips.size()); ++v) {
      const Index s0 = base ^ spread_bits(v, shard_flips);
      if (s0 == static_cast<Index>(s1)) {
        stats.intra_gpu_bytes += pair_bytes;
      } else if (cluster.node_of_shard(static_cast<int>(s0)) ==
                 cluster.node_of_shard(s1)) {
        stats.intra_node_bytes += pair_bytes;
      } else {
        stats.inter_node_bytes += pair_bytes;
      }
    }
  }
  if (stats.intra_node_bytes + stats.inter_node_bytes > 0)
    stats.alltoall_rounds = 1;

  // The walk (see remap.h): tile bits are copied together, outer bits
  // are stepped in Gray-code order. A run of low bits the map fixes, if
  // at least a cache line long, is the tile and moves with one memcpy.
  // Otherwise the tile is destination bits [0, k) plus the local bits
  // whose source bit is below k, so lines are written whole, and read
  // whole when local bits feed their low bits.
  int block_bits = 0;
  while (block_bits < L && bitmap[block_bits] == block_bits &&
         !test_bit(xor_const, block_bits))
    ++block_bits;
  const int k = std::min(kLineBits, L);
  const bool run_path = block_bits >= k;
  std::vector<int> tile_bits;
  std::vector<Index> outer_dst, outer_src;
  for (int p = 0; p < L; ++p) {
    if (run_path ? p < block_bits : p < k || bitmap[p] < k) {
      tile_bits.push_back(p);
    } else {
      outer_dst.push_back(bit(p));
      outer_src.push_back(bit(bitmap[p]));
    }
  }
  const Index steps = shard_size >> tile_bits.size();
  // Source bits below k fed by destination shard bits: the destination
  // shards that differ only there share every source line they read, so
  // one task walks them together, those bits in its tile, as long as a
  // task per pool thread remains.
  ThreadPool& pool = cluster.pool();
  std::vector<int> group_bits;  // shard-relative
  for (int p = L; p < n && !run_path; ++p)
    if (bitmap[p] < k && (static_cast<std::size_t>(num_shards) >>
                          (group_bits.size() + 1)) >= pool.size()) {
      group_bits.push_back(p - L);
      tile_bits.push_back(p);
    }
  const Index tile_size = Index{1} << tile_bits.size();
  std::vector<Index> tile_dst, tile_src;  // index deltas, tile path only
  for (Index t = 0; t < tile_size && !run_path; ++t) {
    tile_dst.push_back(spread_bits(t, tile_bits));
    tile_src.push_back(spread(tile_dst.back()));
  }

  std::vector<const Amp*> src(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) src[s] = state.shard(s).data();
  std::vector<std::vector<Amp>> dst = shard_buffers(num_shards, shard_size);
  std::vector<Amp*> out(static_cast<std::size_t>(num_shards));

  pool.parallel_for(
      static_cast<std::size_t>(num_shards) >> group_bits.size(),
      [&](std::size_t task) {
        const Index first = insert_zero_bits(task, group_bits);
        for (Index v = 0; v < (Index{1} << group_bits.size()); ++v) {
          const Index s1 = first | spread_bits(v, group_bits);
          dst[s1].resize(shard_size);  // first touch, see shard_buffers
          out[s1] = dst[s1].data();
        }
        const auto walk = [&](auto&& copy) {
          Index d = first << L;
          Index s = spread(d) ^ xor_const;
          for (Index i = 1;; ++i) {
            copy(d, s);
            if (i == steps) return;
            const int j = std::countr_zero(i);
            d ^= outer_dst[j];
            s ^= outer_src[j];
          }
        };
        if (run_path) {
          walk([&](Index d, Index s) {
            std::memcpy(out[first] + (d & mask), src[s >> L] + (s & mask),
                        tile_size * sizeof(Amp));
          });
        } else {
          walk([&](Index d, Index s) {
            for (Index t = 0; t < tile_size; ++t) {
              const Index x = s ^ tile_src[t];
              const Index y = d ^ tile_dst[t];
              out[y >> L][y & mask] = src[x >> L][x & mask];
            }
          });
        }
      });

  state.shards() = std::move(dst);
  state.layout() = new_layout;
  return stats;
}

}  // namespace atlas::exec
