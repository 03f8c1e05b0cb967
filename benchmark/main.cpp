// atlas_benchmark: runs one workload of the Atlas benchmark and prints
// its result as one JSON line. benchmark/run.py builds this binary,
// runs each workload in its own process and checks the output against
// BENCHMARK.json; see benchmark/README.md.
//
//   atlas_benchmark --workload NAME [--seed N] [--seconds S]
//                   [--trace] [--trace-out PATH] [--stream-gbps G]
//   atlas_benchmark --host-probe
//
// Load threads are always T = min(4, nproc).

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "walk.h"

namespace bench {
namespace {

/// The largest last-level cache size the kernel reports, in bytes (0
/// when sysfs has no cache information).
std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  int best_level = -1;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_file(dir + "level"), size_file(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size)) continue;
    std::uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (!size.empty() && (size.back() == 'K' || size.back() == 'k'))
      bytes <<= 10;
    if (!size.empty() && size.back() == 'M') bytes <<= 20;
    if (level > best_level || (level == best_level && bytes > best)) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

/// Best of 5 in-place passes (read + write every element) with
/// `threads` threads over an array of `bytes` bytes, in GB/s of
/// computed traffic — the same 2-bytes-per-byte accounting as an apply
/// kernel's read-modify-write of a shard.
double stream_gbps(std::uint64_t bytes, int threads) {
  const std::size_t n = bytes / sizeof(double);
  std::vector<double> a;
  a.reserve(n);
  a.resize(n);  // value-initialized, so every page is touched once
  const auto pass = [&](double factor) {
    std::vector<std::thread> pool;
    const std::size_t chunk = (n + static_cast<std::size_t>(threads) - 1) /
                              static_cast<std::size_t>(threads);
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        const std::size_t lo = static_cast<std::size_t>(t) * chunk;
        const std::size_t hi = std::min(n, lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) a[i] = a[i] * factor + 1.0;
      });
    for (std::thread& th : pool) th.join();
  };
  pass(1.0);
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    pass(0.5);
    const double s = now_s() - t0;
    best = std::max(best, 2.0 * static_cast<double>(n * sizeof(double)) / s);
  }
  return best / 1e9;
}

/// Keeps `threads` threads busy for two seconds. On a virtual machine
/// whose host deschedules idle vCPUs, a process that starts after a
/// pause runs its first second or so at a fraction of its speed; timing
/// starts only once every vCPU is running.
void warm_up(int threads) {
  std::vector<std::thread> pool;
  const double t0 = now_s();
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([t0] {
      volatile double x = 1;
      while (now_s() - t0 < 2.0)
        for (int i = 0; i < 10000; ++i) x = x * 1.0000001 + 1e-9;
    });
  for (std::thread& th : pool) th.join();
}

int host_probe(int threads) {
  const std::uint64_t llc = llc_bytes();
  const std::uint64_t array = llc > 0 ? 4 * llc : (1ull << 30);
  const double gbps = stream_gbps(array, threads);
  std::printf(
      "{\"nproc\": %u, \"llc_bytes\": %llu, \"stream_array_bytes\": %llu, "
      "\"stream_threads\": %d, \"stream_gbps\": %.6g, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(llc),
      static_cast<unsigned long long>(array), threads, gbps, __VERSION__,
      BENCH_BUILD_TYPE);
  return 0;
}

void print_result(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "atlas_benchmark: %s\nusage: atlas_benchmark --workload NAME "
               "[--seed N] [--seconds S] [--trace] [--trace-out PATH] "
               "[--stream-gbps G]\n"
               "       atlas_benchmark --host-probe\n",
               why.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  Options opt;
  opt.threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = true;
      else if (arg == "--trace-out") opt.trace_out = value();
      else if (arg == "--stream-gbps") opt.stream_gbps = std::stod(value());
      else if (arg == "--host-probe") probe = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.seconds <= 0) usage("seconds must be positive");
  if (probe) {
    warm_up(opt.threads);
    return host_probe(opt.threads);
  }

  using Workload = void (*)(const Options&, Report&, Recorder&);
  const std::vector<std::pair<std::string, Workload>> workloads = {
      {"oneshot_table1", oneshot_table1},
      {"vqe_sweep", vqe_sweep},
      {"noisy_offload", noisy_offload},
      {"serve_mix", serve_mix},
  };
  Workload run = nullptr;
  for (const auto& [name, fn] : workloads)
    if (name == opt.workload) run = fn;
  if (run == nullptr) usage("unknown workload '" + opt.workload + "'");
  warm_up(opt.threads);

  Report report;
  Recorder rec(opt.trace);
  std::fprintf(stderr, "%s seed=%llu seconds=%g threads=%d%s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.threads, opt.trace ? " traced" : "");
  try {
    run(opt, report, rec);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }
  if (!opt.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report.set("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MiB");
  } else {
    note_self_times(report, rec);
    if (!opt.trace_out.empty() && !rec.write_chrome(opt.trace_out))
      report.check(false, "cannot write trace " + opt.trace_out);
  }
  print_result(report);
  return report.correct ? 0 : 1;
}
