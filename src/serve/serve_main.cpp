/// atlas-serve: the long-lived serving daemon. Binds a TCP port,
/// serves the atlas-serve protocol (docs/PROTOCOL.md), and runs until
/// SIGINT/SIGTERM or a client's shutdown op.
///
///   atlas-serve --port 7601 --workers 4 --max-sessions 64
///       --ttl-ms 300000 --local-qubits 18 --regional-qubits 1
///       --global-qubits 1       (one command line, wrapped here)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "common/parse.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_signaled{false};

void on_signal(int) { g_signaled.store(true); }

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --host H                bind address (default 127.0.0.1)\n"
      << "  --port P                TCP port; 0 = ephemeral (default "
      << atlas::serve::kDefaultPort << ")\n"
      << "  --workers N             dispatcher worker threads (default 2)\n"
      << "  --max-pending N         per-tenant in-flight bound (default 32)\n"
      << "  --max-sessions N        session store capacity (default 64)\n"
      << "  --ttl-ms MS             session idle TTL (default 300000)\n"
      << "  --purge-ms MS           purge sweep interval (default 1000)\n"
      << "  --shared-plans N        plan cache entries shared by every "
         "session (default 128)\n"
      << "  --local-qubits N        default cluster shape for sessions\n"
      << "  --regional-qubits N\n"
      << "  --global-qubits N\n"
      << "  --gpus-per-node N\n"
      << "  --opt-level L           default compile opt level (default 0)\n"
      << "  --metrics-dump SECONDS  periodically print the metrics\n"
         "                          snapshot to stderr (0 = off)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  atlas::serve::ServerConfig config;
  config.port = atlas::serve::kDefaultPort;
  long metrics_dump_seconds = 0;
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The flag's value as a whole decimal integer in [lo, hi]; anything
    // else exits 2 naming the flag.
    auto next = [&](std::uint64_t lo, std::uint64_t hi) -> std::uint64_t {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      const char* text = argv[++i];
      const auto value = atlas::parse_uint(text, lo, hi);
      if (!value) {
        std::cerr << argv[0] << ": " << arg << " '" << text
                  << "' is not an integer in [" << lo << ", " << hi << "]\n";
        std::exit(2);
      }
      return *value;
    };
    if (arg == "--host") {
      if (i + 1 >= argc) return usage(argv[0]);
      config.host = argv[++i];
    } else if (arg == "--port") {
      config.port = static_cast<int>(next(0, 65535));
    } else if (arg == "--workers") {
      config.workers = static_cast<int>(next(0, 1024));
    } else if (arg == "--max-pending") {
      config.max_pending_per_tenant = next(0, kIntMax);
    } else if (arg == "--max-sessions") {
      config.store.max_sessions = next(1, kIntMax);
    } else if (arg == "--ttl-ms") {
      config.store.session_ttl = std::chrono::milliseconds(next(0, kIntMax));
    } else if (arg == "--purge-ms") {
      config.store.purge_interval =
          std::chrono::milliseconds(next(1, kIntMax));
    } else if (arg == "--shared-plans") {
      config.session.plan_cache_capacity = next(0, kIntMax);
    } else if (arg == "--local-qubits") {
      config.session.cluster.local_qubits = static_cast<int>(next(0, 63));
    } else if (arg == "--regional-qubits") {
      config.session.cluster.regional_qubits = static_cast<int>(next(0, 63));
    } else if (arg == "--global-qubits") {
      config.session.cluster.global_qubits = static_cast<int>(next(0, 63));
    } else if (arg == "--gpus-per-node") {
      config.session.cluster.gpus_per_node = static_cast<int>(next(1, kIntMax));
    } else if (arg == "--opt-level") {
      config.session.opt_level = static_cast<int>(next(0, 2));
    } else if (arg == "--metrics-dump") {
      metrics_dump_seconds = static_cast<long>(next(0, 86400));
    } else {
      return usage(argv[0]);
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    atlas::serve::Server server(std::move(config));
    server.start();
    std::cout << "atlas-serve listening on " << server.config().host << ":"
              << server.port() << " (" << server.config().workers
              << " workers, " << server.config().store.max_sessions
              << " session slots)" << std::endl;

    // Wake periodically to notice signals; wait_shutdown() itself only
    // observes the shutdown op.
    std::thread waiter([&server] {
      if (server.wait_shutdown()) g_signaled.store(true);
    });
    // The poll loop doubles as the --metrics-dump timer: every
    // `metrics_dump_seconds` it prints the full registry snapshot to
    // stderr (stdout stays reserved for the startup line operators
    // parse the port out of).
    long ticks = 0;
    const long ticks_per_dump = metrics_dump_seconds * 5;  // 200 ms polls
    while (!g_signaled.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      if (ticks_per_dump > 0 && ++ticks >= ticks_per_dump) {
        ticks = 0;
        std::cerr << atlas::obs::to_text(
            atlas::obs::MetricsRegistry::instance().snapshot());
      }
    }
    std::cout << "atlas-serve shutting down (draining in-flight work)"
              << std::endl;
    server.stop();
    waiter.join();
  } catch (const std::exception& e) {
    std::cerr << "atlas-serve: " << e.what() << std::endl;
    return 1;
  }
  return 0;
}
