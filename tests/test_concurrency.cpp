// Concurrent-session stress tests: many threads hammering one
// atlas::Session (compile/run/sweep/submit/plan-cache churn), on an
// in-memory shape and on a DRAM-offloading one that runs the device
// backend, and one
// serve::SessionStore (open/get/run/close racing the TTL purge
// thread). These exist to run under ThreadSanitizer in CI — the
// assertions are deliberately light; the sanitizer is the real check.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "circuits/families.h"
#include "core/session.h"
#include "serve/session_store.h"

namespace atlas {
namespace {

SessionConfig stress_config() {
  SessionConfig cfg;
  cfg.cluster.local_qubits = 5;
  cfg.cluster.regional_qubits = 1;
  cfg.cluster.global_qubits = 1;
  cfg.cluster.gpus_per_node = 2;
  cfg.cluster.num_threads = 1;
  cfg.dispatch_threads = 2;
  cfg.plan_cache_capacity = 4;  // small: force eviction churn
  return cfg;
}

/// Many threads compiling, running, sweeping and churning the plan
/// cache of one session built from `cfg`, whose shape must offload
/// (device runner) exactly when `offloading` says so.
void hammer_one_session(const SessionConfig& cfg, bool offloading) {
  SCOPED_TRACE(offloading ? "offloading" : "in place");
  Session session(cfg);
  ASSERT_EQ(session.cluster().config().offloading(), offloading);
  const Circuit qft = circuits::qft(7);
  const Circuit ghz = circuits::ghz(7);

  Circuit ansatz(7, "stress_ansatz");
  const Param theta = Param::symbol("theta");
  for (int q = 0; q < 7; ++q) ansatz.add(Gate::h(q));
  for (int q = 0; q + 1 < 7; ++q) ansatz.add(Gate::cx(q, q + 1));
  for (int q = 0; q < 7; ++q) ansatz.add(Gate::rx(q, theta));

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 12;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int i = 0; i < kItersPerThread; ++i) {
          switch ((t + i) % 5) {
            case 0: {  // compile + run, racing the plan cache
              const CompiledCircuit cc = session.compile(ansatz);
              const SimulationResult r =
                  session.run(cc, std::vector<double>{0.1 * i});
              if (r.norm_sq() < 0.99) failures++;
              break;
            }
            case 1: {  // concrete simulate through the cache
              const SimulationResult r = session.simulate(qft);
              if (r.norm_sq() < 0.99) failures++;
              break;
            }
            case 2: {  // async submit
              auto fut = session.submit(ghz);
              if (fut.get().norm_sq() < 0.99) failures++;
              break;
            }
            case 3: {  // small sweep sharing one plan
              const CompiledCircuit cc = session.compile(ansatz);
              const auto rs = session.sweep(
                  cc, std::vector<std::vector<double>>{{0.2}, {0.4}});
              if (rs.size() != 2) failures++;
              break;
            }
            case 4:  // cache churn racing every other op
              session.clear_plan_cache();
              session.plan_cache_stats();
              break;
          }
        }
      } catch (...) {
        failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Counters stayed coherent through the churn.
  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_LE(stats.size, stats.capacity);
}

TEST(ConcurrencyStress, ManyThreadsHammerOneSession) {
  hammer_one_session(stress_config(), /*offloading=*/false);
  // One GPU per node for two shards: the shape picks the device runner,
  // whose per-GPU staging tasks then share the two-thread cluster pool
  // with every other caller's.
  SessionConfig offloading = stress_config();
  offloading.cluster.gpus_per_node = 1;
  offloading.cluster.num_threads = 2;
  hammer_one_session(offloading, /*offloading=*/true);
}

TEST(ConcurrencyStress, SessionStoreOpenGetRunCloseRacingPurge) {
  serve::StoreLimits limits;
  limits.max_sessions = 16;
  limits.session_ttl = std::chrono::milliseconds(40);  // aggressive TTL
  limits.purge_interval = std::chrono::milliseconds(5);
  serve::SessionStore store(stress_config(), limits);

  const Circuit ghz = circuits::ghz(7);
  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 10;
  std::atomic<int> hard_failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        try {
          auto session = store.open("tenant-" + std::to_string(t),
                                    store.base_config(),
                                    std::chrono::milliseconds(40));
          // begin_work pins the session against the purge thread for
          // the duration of the run — the same protocol the server
          // follows.
          session->begin_work();
          auto found = store.get(session->id());
          SimulationResult r = found->session().simulate(ghz);
          if (r.norm_sq() < 0.99) hard_failures++;
          found->add_result(std::move(r));
          session->end_work();
          if (i % 2 == 0) {
            try {
              store.erase(session->id());
            } catch (const Error&) {
              // Racing purge may have removed it first: acceptable.
            }
          }
        } catch (const Error& e) {
          // capacity (store briefly full) is a legitimate outcome
          // under this contention; anything else is a bug.
          if (e.code() != ErrorCode::capacity &&
              e.code() != ErrorCode::not_found) {
            hard_failures++;
          }
        } catch (...) {
          hard_failures++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hard_failures.load(), 0);

  // Let the purge thread clear the field; the store must end empty.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (store.size() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GT(store.purged_total() + 1, 0u);  // counter readable & sane

  // The store's plan cache outlives its sessions; it stays bounded.
  const PlanCacheStats shared = store.plan_cache_stats();
  EXPECT_LE(shared.size, shared.capacity);
}

TEST(ConcurrencyStress, PlanCacheConcurrentFindInsert) {
  PlanCache cache(4);
  const Session session(stress_config());
  const Circuit qft = circuits::qft(7);
  const auto plan = session.compile(qft).plan();

  constexpr int kThreads = 8;
  constexpr int kIters = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>((t + i) % 6);
        if (!cache.find(key, qft)) cache.insert(key, qft, plan);
        if (i % 8 == 7) (void)cache.stats();
      }
    });
  }
  for (auto& th : threads) th.join();

  const PlanCacheStats stats = cache.stats();
  EXPECT_LE(stats.size, 4u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(stats.resident_bytes,
            stats.size * exec::approx_resident_bytes(*plan));
}

}  // namespace
}  // namespace atlas
