#include "exec/dist_state.h"

#include "common/error.h"
#include "common/thread_pool.h"

namespace atlas::exec {
namespace {

/// Logical state index -> (shard, offset) under `layout`.
std::pair<int, Index> locate(const Layout& l, Index logical_index) {
  Index phys = 0;
  for (int q = 0; q < l.num_qubits(); ++q)
    if (test_bit(logical_index, q)) phys |= bit(l.phys_of_logical[q]);
  const Index offset = phys & ((Index{1} << l.num_local) - 1);
  const Index high = phys >> l.num_local;
  return {static_cast<int>(high ^ l.shard_xor), offset};
}

/// Shards this large are first-touched by the pool task that fills them.
constexpr std::size_t kParallelTouchBytes = std::size_t{1} << 20;

bool touch_in_task(Index size) {
  return size * sizeof(Amp) >= kParallelTouchBytes;
}

}  // namespace

std::vector<std::vector<Amp>> shard_buffers(int count, Index size) {
  std::vector<std::vector<Amp>> shards(static_cast<std::size_t>(count));
  for (std::vector<Amp>& s : shards) {
    if (touch_in_task(size)) {
      s.reserve(size);
    } else {
      s.resize(size);
    }
  }
  return shards;
}

DistState DistState::zero_state(const Layout& layout, ThreadPool* pool) {
  DistState st;
  st.layout_ = layout;
  const int num_shards = 1 << (layout.num_qubits() - layout.num_local);
  const Index size = Index{1} << layout.num_local;
  st.shards_ = shard_buffers(num_shards, size);
  const auto touch = [&](std::size_t s) { st.shards_[s].resize(size); };
  if (pool != nullptr && touch_in_task(size)) {
    pool->parallel_for(st.shards_.size(), touch);
  } else {
    for (std::size_t s = 0; s < st.shards_.size(); ++s) touch(s);
  }
  const auto [s, o] = locate(layout, 0);
  st.shards_[s][o] = Amp(1, 0);
  return st;
}

DistState DistState::scatter(const StateVector& sv, const Layout& layout) {
  ATLAS_CHECK(sv.num_qubits() == layout.num_qubits(),
              "state/layout qubit mismatch");
  DistState st;
  st.layout_ = layout;
  const int num_shards = 1 << (layout.num_qubits() - layout.num_local);
  st.shards_.assign(num_shards,
                    std::vector<Amp>(Index{1} << layout.num_local, Amp{}));
  for (Index i = 0; i < sv.size(); ++i) {
    const auto [s, o] = locate(layout, i);
    st.shards_[s][o] = sv[i];
  }
  return st;
}

StateVector DistState::gather() const {
  StateVector sv(num_qubits());
  sv[0] = Amp{};
  for (Index i = 0; i < sv.size(); ++i) {
    const auto [s, o] = locate(layout_, i);
    sv[i] = shards_[s][o];
  }
  return sv;
}

}  // namespace atlas::exec
