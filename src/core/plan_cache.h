#pragma once

/// \file plan_cache.h
/// The LRU plan cache behind Session::compile(). Plans depend only on
/// a circuit's structure and the machine shape (paper Section III), and
/// compile() canonicalizes every parameter into a slot, so one cached
/// plan serves every binding of every structurally equal circuit. The
/// cache holds plans and nothing value-dependent: each compile() still
/// builds its own slot table and symbol list.
///
/// A cache may be shared by several sessions (Session's second
/// constructor; the serve daemon's SessionStore hands one to every
/// tenant). Keys are salted by the session with its cluster shape and
/// engine configuration, so sessions that would build different plans
/// never share an entry.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "exec/executor.h"
#include "ir/circuit.h"

namespace atlas {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Entries currently resident.
  std::size_t size = 0;
  std::size_t capacity = 0;
  /// Approximate heap footprint of the resident plans
  /// (exec::approx_resident_bytes summed over entries).
  std::size_t resident_bytes = 0;
};

/// Thread-safe LRU map from a 64-bit plan key to an immutable plan.
/// num_qubits/num_gates ride along as cheap collision guards for the
/// hash. Every lookup and eviction also counts into the process-wide
/// `core.plan_cache.*` obs counters.
class PlanCache {
 public:
  /// `capacity` plans are retained; 0 disables caching (lookups still
  /// count misses).
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  /// The plan cached under `key` for a circuit shaped like `circuit`,
  /// or null (a miss).
  std::shared_ptr<const exec::ExecutionPlan> find(std::uint64_t key,
                                                  const Circuit& circuit);
  /// Caches `plan` under `key` unless a concurrent builder got there
  /// first; evicts the least recently used entry past capacity.
  void insert(std::uint64_t key, const Circuit& circuit,
              std::shared_ptr<const exec::ExecutionPlan> plan);

  PlanCacheStats stats() const;
  /// Drops every entry; the counters are kept.
  void clear();

 private:
  struct Entry {
    std::uint64_t key;
    int num_qubits;
    int num_gates;
    std::size_t bytes;
    std::shared_ptr<const exec::ExecutionPlan> plan;
  };

  const std::size_t capacity_;
  mutable Mutex mu_;
  std::list<Entry> entries_ ATLAS_GUARDED_BY(mu_);  // MRU at front
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_
      ATLAS_GUARDED_BY(mu_);
  std::uint64_t hits_ ATLAS_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ ATLAS_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ ATLAS_GUARDED_BY(mu_) = 0;
  std::size_t resident_bytes_ ATLAS_GUARDED_BY(mu_) = 0;
};

}  // namespace atlas
