#include "core/plan_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/names.h"

namespace atlas {

std::shared_ptr<const exec::ExecutionPlan> PlanCache::find(
    std::uint64_t key, const Circuit& circuit) {
  std::shared_ptr<const exec::ExecutionPlan> found;
  {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() && it->second->num_qubits == circuit.num_qubits() &&
        it->second->num_gates == circuit.num_gates()) {
      entries_.splice(entries_.begin(), entries_, it->second);  // to MRU
      ++hits_;
      found = it->second->plan;
    } else {
      // Disabled caches (index always empty) count misses too: the
      // counter is the replanning canary benches and tests read.
      ++misses_;
    }
  }
  static obs::Counter& hits = obs::counter(obs::names::kPlanCacheHits);
  static obs::Counter& misses = obs::counter(obs::names::kPlanCacheMisses);
  (found != nullptr ? hits : misses).inc();
  return found;
}

void PlanCache::insert(std::uint64_t key, const Circuit& circuit,
                       std::shared_ptr<const exec::ExecutionPlan> plan) {
  if (capacity_ == 0) return;
  // Size the plan outside the lock; it walks every stage.
  const std::size_t bytes = exec::approx_resident_bytes(*plan);
  {
    MutexLock lock(mu_);
    if (index_.count(key)) return;  // a concurrent planner won the race
    entries_.push_front(Entry{key, circuit.num_qubits(), circuit.num_gates(),
                              bytes, std::move(plan)});
    index_[key] = entries_.begin();
    resident_bytes_ += bytes;
    if (entries_.size() <= capacity_) return;
    resident_bytes_ -= entries_.back().bytes;
    index_.erase(entries_.back().key);
    entries_.pop_back();
    ++evictions_;
  }
  static obs::Counter& evictions =
      obs::counter(obs::names::kPlanCacheEvictions);
  evictions.inc();
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lock(mu_);
  PlanCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = entries_.size();
  s.capacity = capacity_;
  s.resident_bytes = resident_bytes_;
  return s;
}

void PlanCache::clear() {
  MutexLock lock(mu_);
  entries_.clear();
  index_.clear();
  resident_bytes_ = 0;
}

}  // namespace atlas
