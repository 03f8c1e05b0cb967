#include "kernelize/dp_kernelizer.h"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_map>

#include "common/bits.h"
#include "common/error.h"
#include "kernelize/attach.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "sim/fusion.h"

namespace atlas::kernelize {
namespace {

using Mask = std::uint64_t;

/// One link of the DP-owned item trail. A kernel's items are the chain
/// from its head link back to -1; links are immutable, so states that
/// branch from one another share their common prefix.
struct ItemLink {
  int prev;
  int item;
};

/// An open kernel in a DP state: a plain record, cheap to copy.
struct OpenKernel {
  Mask qubits = 0;
  Mask ext = 0;        // meaningful when !ext_all
  bool ext_all = true; // extensible set is "all qubits"
  KernelType type = KernelType::Fusion;
  int width = 0;       // popcount(qubits)
  double shm_cost = 0; // accumulated per-gate cost (SharedMemory only)
  int head = -1;       // newest link of this kernel's items
};

/// A closed kernel, kept in the DP-owned closed trail. Each state's
/// closed kernels are the chain from its newest record back to -1.
struct ClosedKernel {
  int prev;
  KernelType type;
  int head;
  double cost;
};

/// An open kernel's share of a state's structural key. Entries sort
/// lexicographically in member order.
struct KeyEntry {
  Mask qubits;
  Mask ext;  // all ones when ext_all
  bool ext_all;
  int type;
  auto operator<=>(const KeyEntry&) const = default;
};

/// Structural key for dominance dedup: two states with the same open-
/// kernel structure differ only in committed cost, so the cheaper one
/// dominates. The sorted entries live in the DP's step storage.
struct StateKey {
  const KeyEntry* entries = nullptr;
  std::uint32_t size = 0;
  bool operator==(const StateKey& o) const {
    return size == o.size && std::equal(entries, entries + size, o.entries);
  }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const {
    std::size_t h = 1469598103934665603ull;
    for (std::uint32_t i = 0; i < k.size; ++i) {
      const KeyEntry& e = k.entries[i];
      h ^= e.qubits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= e.ext + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= (static_cast<std::size_t>(e.ext_all) << 1) ^ e.type;
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// A frontier state. Its open kernels live in the DP's step storage.
struct DpState {
  OpenKernel* open = nullptr;
  std::uint32_t num_open = 0;
  double closed_cost = 0;
  int closed = -1;  // newest closed kernel, or -1
  /// closed_cost plus every open kernel's close cost.
  double cost = 0;
  std::span<const OpenKernel> kernels() const { return {open, num_open}; }
};

/// Bump storage for one DP step: spans never move while it grows, and
/// clear() keeps the blocks for the step after next. A state has at
/// most 64 open kernels (their extensible sets, whole qubit sets while
/// unconstrained, are disjoint and nonempty), so every span fits a
/// block.
template <typename T>
class StepArena {
 public:
  static constexpr std::size_t kBlock = 4096;

  T* allocate(std::size_t n) {
    if (blocks_.empty() || used_ + n > kBlock) {
      if (!blocks_.empty()) ++current_;
      if (current_ == blocks_.size()) blocks_.emplace_back(kBlock);
      used_ = 0;
    }
    T* p = blocks_[current_].data() + used_;
    used_ += n;
    return p;
  }
  /// Takes back the last allocate(n).
  void unallocate(std::size_t n) { used_ -= n; }
  void clear() {
    current_ = 0;
    used_ = 0;
  }

 private:
  std::vector<std::vector<T>> blocks_;
  std::size_t current_ = 0;
  std::size_t used_ = 0;
};

/// Where one step's successors keep their keys and open kernels.
struct StepStorage {
  StepArena<KeyEntry> keys;
  StepArena<OpenKernel> open;
  void clear() {
    keys.clear();
    open.clear();
  }
};

/// The successor under construction, reused across transitions.
struct Successor {
  std::vector<OpenKernel> open;
  double closed_cost = 0;
  int closed = -1;
  // Trail sizes before it was built: a rejected successor's links and
  // closed records are truncated back to them.
  std::size_t item_mark = 0;
  std::size_t closed_mark = 0;
};

using Frontier = std::unordered_map<StateKey, DpState, StateKeyHash>;

class DpKernelizer {
 public:
  DpKernelizer(const Circuit& circuit, const CostModel& model,
               const DpOptions& options)
      : circuit_(circuit), model_(model), options_(options) {
    // Packing's fusion verdicts depend only on the two widths: within
    // capacity, not past the efficient width on the first pass, and
    // the merge must actually pay. Every pair the first pass leaves
    // fails the second too, unless the passes differ on some widths.
    const std::vector<double>& cost = model.fusion_cost;
    const int target = model.most_efficient_fusion_size();
    const int max_width = model.max_fusion_qubits;
    fusion_stride_ = static_cast<std::size_t>(max_width) + 1;
    for (int pass = 0; pass < 2; ++pass)
      fusion_merge_[pass].assign(fusion_stride_ * fusion_stride_, false);
    for (int wa = 1; wa <= max_width; ++wa)
      for (int wb = 1; wa + wb <= max_width; ++wb) {
        if (cost[wa + wb] >= cost[wa] + cost[wb]) continue;
        const std::size_t slot = wa * fusion_stride_ + wb;
        fusion_merge_[1][slot] = true;
        if (wa + wb <= target)
          fusion_merge_[0][slot] = true;
        else
          second_pass_ = true;
      }
  }

  Kernelization run() {
    items_ = attach_single_qubit_gates(circuit_);
    if (items_.empty()) return {};
    item_shm_cost_.reserve(items_.size());
    for (const Item& item : items_) {
      double c = 0;
      for (int gi : item.gate_indices)
        c += model_.shm_gate_cost(circuit_.gate(gi));
      item_shm_cost_.push_back(c);
    }

    Frontier frontier;
    frontier.emplace(StateKey{}, DpState{});

    for (const Item& item : items_) {
      next_.clear();
      Frontier next;
      next.reserve(frontier.size() * 4);
      for (auto& [key, state] : frontier) expand(state, item, next);
      ATLAS_CHECK(!next.empty(), "kernelizer produced no successor states");
      frontier = std::move(next);
      std::swap(current_, next_);  // blocks keep their addresses
      prune(frontier);
      if (item_trail_.size() >= compact_at_) {
        compact_trails(frontier);
        compact_at_ = std::max(kMinCompact, 2 * item_trail_.size());
      }
    }

    // Finalize: the greedy packing estimate can be optimistic (a merge
    // may be invalidated by cross-kernel dependencies), so rank states
    // by estimate but select by *actual* reconstructed cost over the
    // best few candidates.
    std::vector<std::pair<double, const DpState*>> ranked;
    for (auto& [key, state] : frontier)
      ranked.emplace_back(state.closed_cost + pack_cost(state.kernels()),
                          &state);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ATLAS_CHECK(!ranked.empty(), "kernelizer found no solution");

    Kernelization best;
    best.total_cost = std::numeric_limits<double>::infinity();
    const std::size_t candidates = std::min<std::size_t>(ranked.size(), 16);
    for (std::size_t i = 0; i < candidates; ++i) {
      const DpState& state = *ranked[i].second;
      Kernelization attempt;
      try {
        std::vector<OpenKernel> packed(state.kernels().begin(),
                                       state.kernels().end());
        std::vector<std::vector<int>> items = items_of(packed);
        pack(packed, [&](std::size_t a, std::size_t b) {
          items[a].insert(items[a].end(), items[b].begin(), items[b].end());
          items.erase(items.begin() + static_cast<std::ptrdiff_t>(b));
        });
        attempt = reconstruct(state, packed, items);
      } catch (const Error&) {
        // Greedy packing merged kernels into a dependency cycle; the
        // unmerged open kernels are always a valid fallback.
        attempt = reconstruct(state, state.kernels(),
                              items_of(state.kernels()));
      }
      if (attempt.total_cost < best.total_cost) best = std::move(attempt);
    }
    return best;
  }

  /// Successor states offered over the whole search.
  std::uint64_t states_offered() const { return states_offered_; }

 private:
  bool capacity_ok(int width, KernelType type) const {
    if (type == KernelType::Fusion) return width <= model_.max_fusion_qubits;
    // Shared-memory kernels always include the shard's 3 least
    // significant *physical* bits; the kernel's logical qubits may map
    // anywhere, so budget for them conservatively.
    return width + 3 <= model_.max_shm_qubits;
  }

  /// A kernel's cost once closed. Widths are capacity-checked, so the
  /// fusion table is indexed directly.
  double close_cost(const OpenKernel& k) const {
    if (k.type == KernelType::Fusion) return model_.fusion_cost[k.width];
    return model_.shm_alpha + k.shm_cost;
  }

  /// Appends `item` to kernel `k` through a new item-trail link.
  void add_item(OpenKernel& k, int item) {
    item_trail_.push_back({k.head, item});
    k.head = static_cast<int>(item_trail_.size()) - 1;
    if (k.type == KernelType::SharedMemory) k.shm_cost += item_shm_cost_[item];
  }

  /// Applies Algorithm 4 to all kernels other than `receiver` after
  /// the item with mask g was added; closes kernels whose extensible
  /// set empties. Compacts the open kernels in place.
  void update_others(Successor& s, std::size_t receiver, Mask g) {
    std::size_t kept = 0;
    for (std::size_t j = 0; j < s.open.size(); ++j) {
      OpenKernel& k = s.open[j];
      if (j != receiver) {
        if (k.ext_all) {
          if ((g & k.qubits) != 0) {
            k.ext_all = false;
            k.ext = k.qubits & ~g;  // monotonicity freezes the qubit set
          }
        } else {
          k.ext &= ~g;
        }
        if (!k.ext_all && k.ext == 0) {
          // No gate can ever join: close and commit the cost.
          const double cost = close_cost(k);
          s.closed_cost += cost;
          closed_trail_.push_back({s.closed, k.type, k.head, cost});
          s.closed = static_cast<int>(closed_trail_.size()) - 1;
          continue;
        }
      }
      if (kept != j) s.open[kept] = k;
      ++kept;
    }
    s.open.resize(kept);
  }

  /// Drops the trail records no frontier state reaches (those of pruned
  /// and replaced states), so the trails stay proportional to the live
  /// frontier. A record only points to older ones, so survivors keep
  /// their order and are renumbered by a prefix count.
  void compact_trails(Frontier& frontier) {
    std::vector<int> item_index(item_trail_.size(), -1);
    std::vector<int> closed_index(closed_trail_.size(), -1);
    auto mark_items = [&](int link) {
      for (; link >= 0 && item_index[link] < 0; link = item_trail_[link].prev)
        item_index[link] = 0;
    };
    for (const auto& [key, state] : frontier) {
      for (const OpenKernel& k : state.kernels()) mark_items(k.head);
      for (int c = state.closed; c >= 0 && closed_index[c] < 0;
           c = closed_trail_[c].prev) {
        closed_index[c] = 0;
        mark_items(closed_trail_[c].head);
      }
    }
    int kept = 0;
    for (std::size_t i = 0; i < item_trail_.size(); ++i) {
      if (item_index[i] < 0) continue;
      ItemLink link = item_trail_[i];
      if (link.prev >= 0) link.prev = item_index[link.prev];
      item_index[i] = kept;
      item_trail_[kept++] = link;
    }
    item_trail_.resize(kept);
    kept = 0;
    for (std::size_t c = 0; c < closed_trail_.size(); ++c) {
      if (closed_index[c] < 0) continue;
      ClosedKernel node = closed_trail_[c];
      if (node.prev >= 0) node.prev = closed_index[node.prev];
      node.head = item_index[node.head];
      closed_index[c] = kept;
      closed_trail_[kept++] = node;
    }
    closed_trail_.resize(kept);
    for (auto& [key, state] : frontier) {
      for (std::uint32_t i = 0; i < state.num_open; ++i)
        state.open[i].head = item_index[state.open[i].head];
      if (state.closed >= 0) state.closed = closed_index[state.closed];
    }
  }

  /// Starts the successor of `state` in the reused scratch state.
  Successor& begin_successor(const DpState& state) {
    succ_.open.assign(state.open, state.open + state.num_open);
    succ_.closed_cost = state.closed_cost;
    succ_.closed = state.closed;
    succ_.item_mark = item_trail_.size();
    succ_.closed_mark = closed_trail_.size();
    return succ_;
  }

  /// Offers the scratch successor to `next`: kept if its structure is
  /// new or it is cheaper than the state already holding it. A
  /// rejected successor's key and trail links are taken back.
  void offer(Frontier& next) {
    ++states_offered_;
    const Successor& s = succ_;
    double open_cost = 0;
    for (const auto& k : s.open) open_cost += close_cost(k);
    const double cost = open_cost + s.closed_cost;

    const auto n = static_cast<std::uint32_t>(s.open.size());
    KeyEntry* entries = next_.keys.allocate(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const OpenKernel& k = s.open[i];
      entries[i] = {k.qubits, k.ext_all ? ~Mask{0} : k.ext, k.ext_all,
                    static_cast<int>(k.type)};
    }
    std::sort(entries, entries + n);
    auto [it, inserted] = next.try_emplace(StateKey{entries, n});
    DpState& held = it->second;
    if (inserted) {
      held.open = next_.open.allocate(n);
      held.num_open = n;
    } else {
      next_.keys.unallocate(n);
      if (!(cost < held.cost)) {
        item_trail_.resize(s.item_mark);
        closed_trail_.resize(s.closed_mark);
        return;
      }
    }
    // Same key, same kernel count: a cheaper state overwrites in place.
    std::copy(s.open.begin(), s.open.end(), held.open);
    held.closed_cost = s.closed_cost;
    held.closed = s.closed;
    held.cost = cost;
  }

  void expand(const DpState& state, const Item& item, Frontier& next) {
    const Mask g = item.qubit_mask;
    const int item_index = static_cast<int>(&item - items_.data());

    // Which kernels can accept this item under Constraint 1?
    eligible_.clear();
    for (std::size_t j = 0; j < state.num_open; ++j) {
      const OpenKernel& k = state.open[j];
      const bool ext_ok = k.ext_all || (g & ~k.ext) == 0;
      if (!ext_ok) continue;
      if (!capacity_ok(popcount(k.qubits | g), k.type)) continue;
      eligible_.push_back(j);
    }

    auto join = [&](std::size_t j) {
      Successor& s = begin_successor(state);
      OpenKernel& recv = s.open[j];
      recv.qubits |= g;
      recv.width = popcount(recv.qubits);
      add_item(recv, item_index);
      update_others(s, j, g);
      offer(next);
    };

    // Subsumption fast path (Appendix B-b): if the item's qubits are
    // contained in a kernel (or contain it while extensible), commit
    // to that single transition.
    for (std::size_t j : eligible_) {
      const OpenKernel& k = state.open[j];
      if ((g & ~k.qubits) == 0 || (k.qubits & ~g) == 0) {
        join(j);
        return;
      }
    }

    // General transitions: join each eligible kernel...
    for (std::size_t j : eligible_) join(j);
    // ...or start a new kernel of either type (Section VI-B).
    for (KernelType type : {KernelType::Fusion, KernelType::SharedMemory}) {
      if (!capacity_ok(popcount(g), type)) continue;
      Successor& s = begin_successor(state);
      OpenKernel k;
      k.qubits = g;
      k.width = popcount(g);
      k.type = type;
      add_item(k, item_index);
      s.open.push_back(k);
      update_others(s, s.open.size() - 1, g);
      offer(next);
    }
  }

  /// Whether kernel b may be merged into kernel a in packing `pass`.
  bool mergeable(const OpenKernel& a, const OpenKernel& b, int pass) const {
    if (a.type != b.type || (a.qubits & b.qubits) != 0) return false;
    if (a.type == KernelType::Fusion)
      return fusion_merge_[pass][a.width * fusion_stride_ + b.width];
    return capacity_ok(a.width + b.width, a.type);  // disjoint widths add
  }

  /// Greedy packing of the remaining open kernels (Appendix B-e):
  /// disjoint fusion kernels are merged toward the most cost-efficient
  /// width, disjoint shared-memory kernels toward the capacity limit.
  /// Each merge takes the lexicographically first mergeable pair (a, b)
  /// and folds b into a. Merges in place, calling on_merge(a, b) before
  /// b is folded and erased; returns the number of merges.
  ///
  /// Only pairs involving the last merge's receiver can change verdict,
  /// and every pair before the last merged one failed, so after a merge
  /// the search rechecks the receiver's pairs and then resumes after
  /// it, instead of rescanning from (0, 1). The second pass runs only
  /// if some pair of widths merges there but not in the first.
  template <typename OnMerge>
  int pack(std::vector<OpenKernel>& open, OnMerge&& on_merge) const {
    int merges = 0;
    for (int pass = 0; pass < (second_pass_ ? 2 : 1); ++pass) {
      std::size_t a = 0, b = 1;  // next pair of the forward scan
      std::size_t dirty = open.size();  // the last merge's receiver
      for (;;) {
        const std::size_t n = open.size();
        bool found = false;
        if (dirty < n) {
          for (std::size_t i = 0; i < dirty && !found; ++i)
            if (mergeable(open[i], open[dirty], pass)) {
              a = i, b = dirty, found = true;
            }
          for (std::size_t j = dirty + 1; j < n && !found; ++j)
            if (mergeable(open[dirty], open[j], pass)) {
              a = dirty, b = j, found = true;
            }
          if (!found) a = dirty + 1, b = dirty + 2;
        }
        while (!found && a < n) {
          if (b >= n) {
            ++a, b = a + 1;
          } else if (mergeable(open[a], open[b], pass)) {
            found = true;
          } else {
            ++b;
          }
        }
        if (!found) break;
        // Perform the merge (gate order restored by the final
        // topological sort).
        on_merge(a, b);
        open[a].qubits |= open[b].qubits;
        open[a].width += open[b].width;
        open[a].shm_cost += open[b].shm_cost;
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(b));
        dirty = a;
        ++merges;
      }
    }
    return merges;
  }

  /// The packing estimate of `open`'s remaining cost, packed in the
  /// reused scratch buffer.
  double pack_cost(std::span<const OpenKernel> open) const {
    pack_scratch_.assign(open.begin(), open.end());
    const int merges = pack(pack_scratch_, [](std::size_t, std::size_t) {});
    double cost = 0;
    for (const auto& k : pack_scratch_) cost += close_cost(k);
    // Merges can be invalidated by cross-kernel dependencies at
    // reconstruction, so an estimate that relies on them is slightly
    // optimistic; a tiny penalty breaks pruning ties in favor of
    // states that do not need merging.
    cost += 1e-7 * merges;
    return cost;
  }

  /// Item indices reached from `head` through the item trail.
  std::vector<int> trail_items(int head) const {
    std::vector<int> items;
    for (int link = head; link >= 0; link = item_trail_[link].prev)
      items.push_back(item_trail_[link].item);
    return items;
  }

  std::vector<std::vector<int>> items_of(
      std::span<const OpenKernel> open) const {
    std::vector<std::vector<int>> items;
    items.reserve(open.size());
    for (const auto& k : open) items.push_back(trail_items(k.head));
    return items;
  }

  /// Builds the final kernel sequence: closed chain + packed leftovers
  /// (with their items), topologically ordered by gate dependencies.
  Kernelization reconstruct(
      const DpState& state, std::span<const OpenKernel> packed,
      const std::vector<std::vector<int>>& packed_items) const {
    struct ProtoKernel {
      KernelType type;
      std::vector<int> gates;  // original gate indices
      double cost;
    };
    std::vector<ProtoKernel> protos;
    auto gates_of = [&](const std::vector<int>& items) {
      std::vector<int> gates;
      for (int it : items)
        gates.insert(gates.end(), items_[it].gate_indices.begin(),
                     items_[it].gate_indices.end());
      std::sort(gates.begin(), gates.end());
      return gates;
    };
    for (int c = state.closed; c >= 0; c = closed_trail_[c].prev) {
      const ClosedKernel& node = closed_trail_[c];
      protos.push_back({node.type, gates_of(trail_items(node.head)),
                        node.cost});
    }
    for (std::size_t i = 0; i < packed.size(); ++i)
      protos.push_back(
          {packed[i].type, gates_of(packed_items[i]), close_cost(packed[i])});

    // Topological order over kernels: edge a->b when some gate of a
    // precedes a dependent gate of b. Constraint 1 guarantees this
    // relation is acyclic (Theorem 2).
    const int nk = static_cast<int>(protos.size());
    std::vector<int> kernel_of_gate(circuit_.num_gates(), -1);
    for (int k = 0; k < nk; ++k)
      for (int gi : protos[k].gates) kernel_of_gate[gi] = k;
    std::vector<std::vector<int>> succ(nk);
    std::vector<int> indeg(nk, 0);
    for (const auto& [a, b] : circuit_.dependency_edges()) {
      const int ka = kernel_of_gate[a], kb = kernel_of_gate[b];
      if (ka != kb) {
        succ[ka].push_back(kb);
        ++indeg[kb];
      }
    }
    std::vector<int> order;
    std::vector<int> ready;
    for (int k = 0; k < nk; ++k)
      if (indeg[k] == 0) ready.push_back(k);
    while (!ready.empty()) {
      // Deterministic order: smallest kernel id (creation order) first.
      std::sort(ready.begin(), ready.end(), std::greater<int>());
      const int k = ready.back();
      ready.pop_back();
      order.push_back(k);
      for (int s : succ[k])
        if (--indeg[s] == 0) ready.push_back(s);
    }
    ATLAS_CHECK(static_cast<int>(order.size()) == nk,
                "kernel dependency graph has a cycle (Constraint 1 violated)");

    Kernelization out;
    for (int k : order) {
      Kernel kernel;
      kernel.type = protos[k].type;
      kernel.gate_indices = protos[k].gates;
      std::vector<Gate> gates;
      for (int gi : kernel.gate_indices) gates.push_back(circuit_.gate(gi));
      kernel.qubits = qubit_union(gates);
      kernel.cost = kernel_cost(circuit_, kernel, model_);
      out.total_cost += kernel.cost;
      out.kernels.push_back(std::move(kernel));
    }
    return out;
  }

  void prune(Frontier& frontier) const {
    const int t = options_.prune_threshold;
    if (static_cast<int>(frontier.size()) < t) return;
    std::vector<std::pair<double, const StateKey*>> scored;
    scored.reserve(frontier.size());
    for (auto& [key, state] : frontier)
      scored.emplace_back(state.closed_cost + pack_cost(state.kernels()),
                          &key);
    const std::size_t keep = std::max<std::size_t>(1, t / 2);
    std::nth_element(scored.begin(), scored.begin() + keep - 1, scored.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    Frontier kept;
    kept.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      auto it = frontier.find(*scored[i].second);
      kept.insert(frontier.extract(it));
    }
    frontier = std::move(kept);
  }

  const Circuit& circuit_;
  const CostModel& model_;
  const DpOptions& options_;
  /// fusion_merge_[pass][wa * fusion_stride_ + wb]: whether disjoint
  /// fusion kernels of widths wa and wb merge in packing `pass`.
  std::vector<char> fusion_merge_[2];
  std::size_t fusion_stride_ = 0;
  bool second_pass_ = false;
  std::vector<Item> items_;
  std::vector<double> item_shm_cost_;  // per item, summed once
  std::vector<ItemLink> item_trail_;
  std::vector<ClosedKernel> closed_trail_;
  /// The item-trail size that triggers compact_trails().
  static constexpr std::size_t kMinCompact = std::size_t{1} << 16;
  std::size_t compact_at_ = kMinCompact;
  // Keys and open kernels of the frontier's states, and of the
  // successors being offered.
  StepStorage current_, next_;
  // Scratch reused across transitions and scores.
  Successor succ_;
  std::vector<std::size_t> eligible_;
  mutable std::vector<OpenKernel> pack_scratch_;
  std::uint64_t states_offered_ = 0;
};

}  // namespace

Kernelization kernelize_dp(const Circuit& circuit, const CostModel& model,
                           const DpOptions& options) {
  for (const Gate& g : circuit.gates()) {
    ATLAS_CHECK(g.num_qubits() <= model.max_fusion_qubits ||
                    g.num_qubits() + 3 <= model.max_shm_qubits,
                "gate " << g.to_string() << " exceeds every kernel capacity");
  }
  static obs::Counter& dp_states = obs::counter(obs::names::kKernelizeDpStates);
  DpKernelizer dp(circuit, model, options);
  Kernelization out = dp.run();
  dp_states.add(dp.states_offered());
  return out;
}

}  // namespace atlas::kernelize
