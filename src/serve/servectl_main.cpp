/// atlas-servectl: operator CLI for a running atlas-serve daemon.
///
///   atlas-servectl [--host H] [--port P] [--json] list
///   atlas-servectl stats
///   atlas-servectl metrics
///   atlas-servectl evict <session-id>
///   atlas-servectl drain
///   atlas-servectl shutdown
///
/// With --json every command emits a single machine-readable JSON object
/// on stdout (errors still go to stderr and set a nonzero exit code).

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "serve/client.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--host H] [--port P] [--json] "
               "list | stats | metrics | evict <session-id> | drain | "
               "shutdown\n";
  return 2;
}

/// Escapes a string for inclusion in a JSON string literal. Tenant names
/// are validated server-side to a conservative charset, but escape anyway
/// so the output is well-formed JSON no matter what the wire carried.
std::string json_escape(const std::string& s) {
  std::ostringstream out;
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  return out.str();
}

void cmd_list(atlas::serve::Client& client, bool json) {
  const auto sessions = client.list_sessions();
  if (json) {
    std::cout << "{\"sessions\":[";
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const auto& s = sessions[i];
      if (i != 0) std::cout << ",";
      std::cout << "{\"session_id\":" << s.session_id << ",\"tenant\":\""
                << json_escape(s.tenant) << "\",\"idle_seconds\":"
                << s.idle_seconds << ",\"ttl_seconds\":" << s.ttl_seconds
                << ",\"active\":" << s.active << ",\"queued\":" << s.queued
                << ",\"circuits\":" << s.circuits << ",\"compiled\":"
                << s.compiled << ",\"results\":" << s.results << "}";
    }
    std::cout << "],\"count\":" << sessions.size() << "}\n";
    return;
  }
  std::cout << std::left << std::setw(10) << "session" << std::setw(16)
            << "tenant" << std::right << std::setw(10) << "idle_s"
            << std::setw(8) << "ttl_s" << std::setw(8) << "active"
            << std::setw(8) << "queued" << std::setw(10) << "circuits"
            << std::setw(10) << "compiled" << std::setw(9) << "results"
            << "\n";
  for (const auto& s : sessions) {
    std::cout << std::left << std::setw(10) << s.session_id << std::setw(16)
              << s.tenant << std::right << std::fixed << std::setprecision(1)
              << std::setw(10) << s.idle_seconds << std::setw(8)
              << s.ttl_seconds << std::setw(8) << s.active << std::setw(8)
              << s.queued << std::setw(10) << s.circuits << std::setw(10)
              << s.compiled << std::setw(9) << s.results << "\n";
  }
  std::cout << sessions.size() << " session(s)\n";
}

void cmd_stats(atlas::serve::Client& client, bool json) {
  const auto s = client.cache_stats();
  if (json) {
    std::cout << "{\"shared\":{\"entries\":" << s.shared_entries
              << ",\"resident_bytes\":" << s.shared_resident_bytes
              << ",\"hits\":" << s.shared_hits << ",\"misses\":"
              << s.shared_misses << ",\"evictions\":" << s.shared_evictions
              << "},\"sessions\":{\"live\":" << s.sessions << ",\"capacity\":"
              << s.session_capacity << ",\"purged\":" << s.sessions_purged
              << "}}\n";
    return;
  }
  const std::uint64_t lookups = s.shared_hits + s.shared_misses;
  std::cout << "shared plan cache: " << s.shared_entries << " entries, "
            << s.shared_resident_bytes << " bytes, " << s.shared_hits
            << " hits / " << s.shared_misses << " misses ("
            << std::fixed << std::setprecision(1)
            << (lookups == 0 ? 0.0
                             : 100.0 * static_cast<double>(s.shared_hits) /
                                   static_cast<double>(lookups))
            << "% hit rate), " << s.shared_evictions << " evictions\n";
  std::cout << "sessions: " << s.sessions << "/" << s.session_capacity
            << " live, " << s.sessions_purged << " purged\n";
}

void cmd_metrics(atlas::serve::Client& client, bool json) {
  const auto reply = client.metrics();
  if (json) {
    std::cout << "{\"metrics\":[";
    for (std::size_t i = 0; i < reply.metrics.size(); ++i) {
      const auto& m = reply.metrics[i];
      if (i != 0) std::cout << ",";
      std::cout << "{\"name\":\"" << json_escape(m.name) << "\"";
      switch (m.kind) {
        case 0:
          std::cout << ",\"kind\":\"counter\",\"value\":" << m.count;
          break;
        case 1:
          std::cout << ",\"kind\":\"gauge\",\"value\":" << m.gauge;
          break;
        default:
          std::cout << ",\"kind\":\"histogram\",\"count\":" << m.count
                    << ",\"sum\":" << m.sum << ",\"p50\":" << m.p50
                    << ",\"p90\":" << m.p90 << ",\"p99\":" << m.p99;
          break;
      }
      std::cout << "}";
    }
    std::cout << "],\"count\":" << reply.metrics.size() << "}\n";
    return;
  }
  for (const auto& m : reply.metrics) {
    std::cout << std::left << std::setw(40) << m.name << std::right;
    switch (m.kind) {
      case 0:
        std::cout << " " << m.count << "\n";
        break;
      case 1:
        std::cout << " " << m.gauge << "\n";
        break;
      default:
        std::cout << " count=" << m.count << std::fixed
                  << std::setprecision(1) << " sum=" << m.sum
                  << " p50=" << m.p50 << " p90=" << m.p90
                  << " p99=" << m.p99 << "\n";
        std::cout.unsetf(std::ios_base::floatfield);
        break;
    }
  }
  std::cout << reply.metrics.size() << " metric(s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = atlas::serve::kDefaultPort;
  bool json = false;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = atlas::parse_arg(argv[0], "--port", argv[++i], 1, 65535);
    } else if (arg == "--json") {
      json = true;
    } else {
      rest.push_back(arg);
    }
  }
  if (rest.empty()) return usage(argv[0]);
  std::uint64_t evict_id = 0;
  if (rest[0] == "evict") {
    if (rest.size() != 2) return usage(argv[0]);
    const auto value = atlas::parse_uint(
        rest[1], 0, std::numeric_limits<std::uint64_t>::max());
    if (!value) {
      std::cerr << argv[0] << ": evict: session id '" << rest[1]
                << "' is not an unsigned integer\n";
      return 2;
    }
    evict_id = *value;
  }

  try {
    atlas::serve::Client client(host, port);
    const std::string& cmd = rest[0];
    if (cmd == "list") {
      cmd_list(client, json);
    } else if (cmd == "stats") {
      cmd_stats(client, json);
    } else if (cmd == "metrics") {
      cmd_metrics(client, json);
    } else if (cmd == "evict") {
      client.evict_session(evict_id);
      if (json) {
        std::cout << "{\"evicted\":" << evict_id << "}\n";
      } else {
        std::cout << "evicted session " << rest[1] << "\n";
      }
    } else if (cmd == "drain") {
      client.drain();
      if (json) {
        std::cout << "{\"drained\":true}\n";
      } else {
        std::cout << "drained: in-flight work finished, new work refused\n";
      }
    } else if (cmd == "shutdown") {
      client.shutdown_server();
      if (json) {
        std::cout << "{\"shutdown\":true}\n";
      } else {
        std::cout << "shutdown requested\n";
      }
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::cerr << "atlas-servectl: " << e.what() << std::endl;
    return 1;
  }
  return 0;
}
