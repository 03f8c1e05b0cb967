#pragma once

/// \file session_store.h
/// Per-tenant session state for the serve daemon: a bounded store of
/// live atlas::Session objects with TTL expiry and a periodic purge
/// thread (the kamailio sca-module shape: hash_table_size bound,
/// purge_expired_interval sweep, introspection over every entry), plus
/// the cross-tenant plan cache.
///
/// Plans are state-independent and keyed on post-optimization
/// structural fingerprints salted with the cluster shape and engine
/// configuration, so a plan one tenant's session built is valid for
/// every other session that would look it up. The store owns one
/// PlanCache and hands it to every session it opens: identical circuit
/// structures from different tenants hit one entry, while each
/// tenant's compile() still builds its own slot table and symbols. The
/// daemon surfaces the cache through the cache_stats op.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "core/session.h"
#include "noise/model.h"

namespace atlas::serve {

/// Store shape and lifecycle knobs (kamailio: hash_table_size /
/// *_max_expires / purge_expired_interval).
struct StoreLimits {
  /// Hard bound on live sessions; opening past it is refused with
  /// ErrorCode::capacity (admission control, not eviction — tenants
  /// are told to back off rather than silently losing a neighbor).
  std::size_t max_sessions = 64;
  /// Idle sessions older than this are purged. Per-session overrides
  /// come from the open_session request.
  std::chrono::milliseconds session_ttl{5 * 60 * 1000};
  /// Purge-thread sweep period.
  std::chrono::milliseconds purge_interval{1000};
  /// Retained SimulationResults per session (oldest evicted first —
  /// each pins a full 2^n-amplitude state).
  std::size_t max_results_per_session = 8;
  /// Stored circuits + compiled handles per session.
  std::size_t max_circuits_per_session = 256;
};

/// A parsed circuit as stored by submit_qasm: the circuit, its
/// pragma-attached noise model, and the free-symbol order run_noisy
/// binds positionally against.
struct StoredCircuit {
  Circuit circuit;
  noise::NoiseModel noise;
  bool has_noise = false;
  std::vector<std::string> symbols;
};

/// One tenant's server-side state: the engine Session plus the handle
/// tables the wire protocol indexes into. Bookkeeping is mutex-guarded;
/// the Session itself is thread-safe by contract.
class ServeSession {
 public:
  /// The session compiles through `plan_cache`, which the store
  /// shares across its sessions.
  ServeSession(std::uint64_t id, std::string tenant, SessionConfig config,
               std::shared_ptr<PlanCache> plan_cache,
               std::chrono::milliseconds ttl, std::size_t max_results,
               std::size_t max_circuits);

  std::uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  Session& session() { return session_; }
  double ttl_seconds() const;

  /// Stores a parsed circuit; returns its handle. Throws
  /// ErrorCode::capacity past the per-session bound.
  std::uint32_t add_circuit(StoredCircuit parsed);
  /// Fetches a stored circuit by handle (shared, immutable). Throws
  /// ErrorCode::not_found.
  std::shared_ptr<const StoredCircuit> circuit(std::uint32_t id) const;

  std::uint32_t add_compiled(std::shared_ptr<const CompiledCircuit> compiled);
  std::shared_ptr<const CompiledCircuit> compiled(std::uint32_t id) const;

  /// Retains a run's result for follow-up sample() calls; evicts the
  /// oldest beyond the bound.
  std::uint32_t add_result(SimulationResult result);
  /// Draws `shots` samples from a retained result using the result's
  /// own deterministic stream (serialized here — the counter is plain
  /// state). Throws ErrorCode::not_found.
  std::vector<Index> sample_result(std::uint32_t id, int shots);

  /// Marks activity now (expiry clock).
  void touch();
  double idle_seconds() const;
  /// True when idle past the TTL and no work is scheduled or running.
  bool expired() const;

  /// In-flight accounting: a session with begun work is never purged.
  void begin_work() { active_.fetch_add(1, std::memory_order_relaxed); }
  void end_work() { active_.fetch_sub(1, std::memory_order_relaxed); }
  int active() const { return active_.load(std::memory_order_relaxed); }

  std::uint32_t num_circuits() const;
  std::uint32_t num_compiled() const;
  std::uint32_t num_results() const;

 private:
  const std::uint64_t id_;
  const std::string tenant_;
  const std::chrono::milliseconds ttl_;
  const std::size_t max_results_;
  const std::size_t max_circuits_;
  Session session_;

  mutable Mutex mu_;
  std::uint32_t next_id_ ATLAS_GUARDED_BY(mu_) = 1;
  std::map<std::uint32_t, std::shared_ptr<const StoredCircuit>> circuits_
      ATLAS_GUARDED_BY(mu_);
  std::map<std::uint32_t, std::shared_ptr<const CompiledCircuit>> compiled_
      ATLAS_GUARDED_BY(mu_);
  // ids ascending = FIFO
  std::map<std::uint32_t, SimulationResult> results_ ATLAS_GUARDED_BY(mu_);

  std::atomic<std::int64_t> last_used_ns_;
  std::atomic<int> active_{0};
};

/// The bounded session table + its purge thread.
class SessionStore {
 public:
  /// `base` is the config every tenant session starts from (per-tenant
  /// open_session fields override it); its plan_cache_capacity sizes
  /// the plan cache the store shares across its sessions.
  SessionStore(SessionConfig base, StoreLimits limits);
  ~SessionStore();

  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  const StoreLimits& limits() const { return limits_; }
  const SessionConfig& base_config() const { return base_; }

  /// Creates a session. Throws ErrorCode::capacity when the store is
  /// full even after purging expired entries, and
  /// ErrorCode::invalid_argument on a bad config override.
  std::shared_ptr<ServeSession> open(const std::string& tenant,
                                     SessionConfig config,
                                     std::chrono::milliseconds ttl);

  /// Looks a session up and touches it. Throws ErrorCode::not_found.
  std::shared_ptr<ServeSession> get(std::uint64_t id) const;

  /// Removes a session (close_session / evict_session). In-flight work
  /// holding the shared_ptr finishes safely. Throws
  /// ErrorCode::not_found when absent.
  void erase(std::uint64_t id);

  /// One expiry sweep; returns how many sessions it removed. The purge
  /// thread calls this every limits().purge_interval.
  std::size_t purge_expired();

  std::vector<std::shared_ptr<ServeSession>> snapshot() const;
  std::size_t size() const;
  std::uint64_t purged_total() const {
    return purged_total_.load(std::memory_order_relaxed);
  }

  /// Stats of the plan cache every session of this store shares
  /// (cache_stats op). The cache outlives the sessions.
  PlanCacheStats plan_cache_stats() const { return plan_cache_->stats(); }

 private:
  void purge_loop();

  const SessionConfig base_;
  const StoreLimits limits_;
  const std::shared_ptr<PlanCache> plan_cache_;

  mutable Mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ServeSession>> sessions_
      ATLAS_GUARDED_BY(mu_);
  std::uint64_t next_id_ ATLAS_GUARDED_BY(mu_) = 1;
  std::atomic<std::uint64_t> purged_total_{0};

  Mutex purge_mu_;
  CondVar purge_cv_;
  bool stop_ ATLAS_GUARDED_BY(purge_mu_) = false;
  std::thread purge_thread_;
};

}  // namespace atlas::serve
