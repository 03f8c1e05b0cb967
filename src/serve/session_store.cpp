#include "serve/session_store.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace atlas::serve {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServeSession::ServeSession(std::uint64_t id, std::string tenant,
                           SessionConfig config,
                           std::shared_ptr<PlanCache> plan_cache,
                           std::chrono::milliseconds ttl,
                           std::size_t max_results, std::size_t max_circuits)
    : id_(id),
      tenant_(std::move(tenant)),
      ttl_(ttl),
      max_results_(max_results),
      max_circuits_(max_circuits),
      session_(std::move(config), std::move(plan_cache)),
      last_used_ns_(now_ns()) {}

double ServeSession::ttl_seconds() const {
  return std::chrono::duration<double>(ttl_).count();
}

std::uint32_t ServeSession::add_circuit(StoredCircuit parsed) {
  MutexLock lock(mu_);
  if (circuits_.size() >= max_circuits_) {
    throw Error("session " + std::to_string(id_) + " holds " +
                    std::to_string(circuits_.size()) +
                    " circuits (per-session limit); close_session and reopen",
                ErrorCode::capacity);
  }
  const std::uint32_t id = next_id_++;
  circuits_.emplace(id,
                    std::make_shared<const StoredCircuit>(std::move(parsed)));
  return id;
}

std::shared_ptr<const StoredCircuit> ServeSession::circuit(
    std::uint32_t id) const {
  MutexLock lock(mu_);
  auto it = circuits_.find(id);
  if (it == circuits_.end()) {
    throw Error("no circuit " + std::to_string(id) + " in session " +
                    std::to_string(id_),
                ErrorCode::not_found);
  }
  return it->second;
}

std::uint32_t ServeSession::add_compiled(
    std::shared_ptr<const CompiledCircuit> compiled) {
  MutexLock lock(mu_);
  if (compiled_.size() >= max_circuits_) {
    throw Error("session " + std::to_string(id_) + " holds " +
                    std::to_string(compiled_.size()) +
                    " compiled circuits (per-session limit)",
                ErrorCode::capacity);
  }
  const std::uint32_t id = next_id_++;
  compiled_.emplace(id, std::move(compiled));
  return id;
}

std::shared_ptr<const CompiledCircuit> ServeSession::compiled(
    std::uint32_t id) const {
  MutexLock lock(mu_);
  auto it = compiled_.find(id);
  if (it == compiled_.end()) {
    throw Error("no compiled circuit " + std::to_string(id) + " in session " +
                    std::to_string(id_),
                ErrorCode::not_found);
  }
  return it->second;
}

std::uint32_t ServeSession::add_result(SimulationResult result) {
  MutexLock lock(mu_);
  const std::uint32_t id = next_id_++;
  results_.emplace(id, std::move(result));
  // Oldest-first eviction: ids are monotone, so begin() is the FIFO
  // head. Each result pins a full state vector; the bound is what keeps
  // an absent-minded tenant from holding the daemon's memory hostage.
  while (results_.size() > max_results_) results_.erase(results_.begin());
  return id;
}

std::vector<Index> ServeSession::sample_result(std::uint32_t id, int shots) {
  // Serialized under mu_: SimulationResult::sample(shots) advances a
  // plain call counter (deliberately, for replayability).
  MutexLock lock(mu_);
  auto it = results_.find(id);
  if (it == results_.end()) {
    throw Error("no result " + std::to_string(id) + " in session " +
                    std::to_string(id_) +
                    " (results are a bounded FIFO; rerun or raise the bound)",
                ErrorCode::not_found);
  }
  return it->second.sample(shots);
}

void ServeSession::touch() {
  last_used_ns_.store(now_ns(), std::memory_order_relaxed);
}

double ServeSession::idle_seconds() const {
  const std::int64_t idle =
      now_ns() - last_used_ns_.load(std::memory_order_relaxed);
  return static_cast<double>(idle) * 1e-9;
}

bool ServeSession::expired() const {
  if (active() > 0) return false;
  return idle_seconds() * 1e3 >= static_cast<double>(ttl_.count());
}

std::uint32_t ServeSession::num_circuits() const {
  MutexLock lock(mu_);
  return static_cast<std::uint32_t>(circuits_.size());
}

std::uint32_t ServeSession::num_compiled() const {
  MutexLock lock(mu_);
  return static_cast<std::uint32_t>(compiled_.size());
}

std::uint32_t ServeSession::num_results() const {
  MutexLock lock(mu_);
  return static_cast<std::uint32_t>(results_.size());
}

SessionStore::SessionStore(SessionConfig base, StoreLimits limits)
    : base_(std::move(base)),
      limits_(limits),
      plan_cache_(std::make_shared<PlanCache>(base_.plan_cache_capacity)) {
  validate_session_config(base_);
  ATLAS_CHECK_ARG(limits_.max_sessions > 0, "max_sessions must be positive");
  ATLAS_CHECK_ARG(limits_.purge_interval.count() > 0,
                  "purge_interval must be positive");
  purge_thread_ = std::thread([this] { purge_loop(); });
}

SessionStore::~SessionStore() {
  {
    MutexLock lock(purge_mu_);
    stop_ = true;
  }
  purge_cv_.notify_all();
  purge_thread_.join();
}

std::shared_ptr<ServeSession> SessionStore::open(
    const std::string& tenant, SessionConfig config,
    std::chrono::milliseconds ttl) {
  ATLAS_CHECK_ARG(!tenant.empty(), "tenant name must not be empty");
  validate_session_config(config);
  if (ttl.count() <= 0) ttl = limits_.session_ttl;

  // Construct outside the store lock — Session construction builds a
  // cluster and thread pools.
  std::uint64_t id;
  {
    MutexLock lock(mu_);
    id = next_id_++;
  }
  auto session = std::make_shared<ServeSession>(
      id, tenant, std::move(config), plan_cache_, ttl,
      limits_.max_results_per_session, limits_.max_circuits_per_session);

  MutexLock lock(mu_);
  if (sessions_.size() >= limits_.max_sessions) {
    // Reclaim expired entries before refusing — mirrors kamailio's
    // purge-on-insert: a full table of dead sessions should not lock
    // live tenants out until the next timer tick.
    std::size_t purged = 0;
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->expired()) {
        it = sessions_.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
    purged_total_.fetch_add(purged, std::memory_order_relaxed);
    if (sessions_.size() >= limits_.max_sessions) {
      throw Error("session store is full (" +
                      std::to_string(limits_.max_sessions) +
                      " live sessions); close sessions or retry later",
                  ErrorCode::capacity);
    }
  }
  sessions_.emplace(id, session);
  return session;
}

std::shared_ptr<ServeSession> SessionStore::get(std::uint64_t id) const {
  std::shared_ptr<ServeSession> session;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw Error("no session " + std::to_string(id) +
                      " (closed, evicted, or expired)",
                  ErrorCode::not_found);
    }
    session = it->second;
  }
  session->touch();
  return session;
}

void SessionStore::erase(std::uint64_t id) {
  std::shared_ptr<ServeSession> victim;  // destroy outside the lock
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw Error("no session " + std::to_string(id), ErrorCode::not_found);
    }
    victim = std::move(it->second);
    sessions_.erase(it);
  }
}

std::size_t SessionStore::purge_expired() {
  std::vector<std::shared_ptr<ServeSession>> victims;
  {
    MutexLock lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->expired()) {
        victims.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  purged_total_.fetch_add(victims.size(), std::memory_order_relaxed);
  return victims.size();
}

std::vector<std::shared_ptr<ServeSession>> SessionStore::snapshot() const {
  std::vector<std::shared_ptr<ServeSession>> out;
  MutexLock lock(mu_);
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  return out;
}

std::size_t SessionStore::size() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

void SessionStore::purge_loop() {
  for (;;) {
    {
      MutexLock lock(purge_mu_);
      // wait_for returns the predicate's value: true means stop was
      // requested, false means the sweep interval elapsed.
      if (purge_cv_.wait_for(purge_mu_, limits_.purge_interval,
                             [this]() ATLAS_REQUIRES(purge_mu_) {
                               return stop_;
                             })) {
        return;
      }
    }
    // Sweep outside purge_mu_ — purge_expired() takes mu_ and victim
    // destructors can be slow (they drain session pools).
    purge_expired();
  }
}

}  // namespace atlas::serve
