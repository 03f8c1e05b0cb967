#pragma once

// Shared plumbing of the Atlas benchmark: run options, sample
// statistics, the result record every workload fills, and the helpers
// that compare engine outputs bit for bit.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "exec/dist_state.h"
#include "trace.h"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase (and of the traced phase).
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty: nowhere).
  std::string trace_out;
  /// Host streaming bandwidth for the roofline figures (traced runs).
  double stream_gbps = 0;
  /// Load threads and connections: min(4, nproc), fixed by main().
  int threads = 1;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interpolated quantile of `v` (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// What one workload run reports: the result record's correctness fields,
/// the metrics, and human-readable notes printed to stderr.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one checked operation; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void note(const std::string& line) {
    std::fprintf(stderr, "  %s\n", line.c_str());
  }
};

/// Reports a timing sample with its count on stderr.
inline void note_sample(Report& r, const std::string& name,
                        const std::vector<double>& seconds) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-28s n=%-6zu p50=%.4g ms  p90=%.4g ms  sum=%.4g s",
                name.c_str(), seconds.size(), median(seconds) * 1e3,
                quantile(seconds, 0.9) * 1e3, sum(seconds));
  r.note(line);
}

/// The host's speed over a run, from a fixed reference loop timed
/// between operations. On a shared virtual machine the same code runs
/// up to 2.5x slower for minutes at a time while neighbours load the
/// host. Of the loops tried, a single-threaded one of data-dependent
/// probes into a 512 KiB table moved most closely with compile and run
/// times over such swings (correlation 0.73-0.94 over 20-second
/// windows, at about the same relative size), so end-to-end times are
/// scaled by kNominalSeconds over the run's mean loop time: they are
/// reported at the speed of a quiet host. The mean, not the median,
/// because bursts of load that hit a few loops in a run stall the
/// multi-threaded workloads far more than the single-threaded loop. A
/// code change still moves the scaled figures in full, since the loop
/// runs no engine code.
class Pace {
 public:
  /// The loop's time on a quiet spell of the measuring host
  /// (benchmark/README.md).
  static constexpr double kNominalSeconds = 9e-3;

  /// Times the loop unless it ran less than half a second ago. Called
  /// between operations, off their clocks.
  void sample() {
    if (now_s() - last_ < 0.5) return;
    std::fill(table_.begin(), table_.end(), 0);
    const double t0 = now_s();
    std::uint64_t h = 1;
    for (int i = 0; i < 1000000; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      std::uint64_t& e = table_[h & (table_.size() - 1)];
      if (e & 1)
        sink_ += e;
      else
        e += h;
    }
    last_ = now_s();
    seconds_.push_back(last_ - t0);
  }

  /// Multiplies a measured time (divides a rate) to the quiet host's.
  double factor() const {
    return seconds_.empty()
               ? 1.0
               : kNominalSeconds * static_cast<double>(seconds_.size()) /
                     sum(seconds_);
  }
  const std::vector<double>& seconds() const { return seconds_; }

 private:
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(1 << 16);
  std::uint64_t sink_ = 0;
  std::vector<double> seconds_;
  double last_ = -1e9;
};

/// Fills the end-to-end metrics every workload reports, at the quiet
/// host's speed: `work_units` done in `work_seconds`. Raw samples go to
/// stderr.
inline void end_to_end(Report& r, const Pace& pace,
                       const std::vector<double>& setup_seconds,
                       double work_units, double work_seconds) {
  note_sample(r, "pace", pace.seconds());
  note_sample(r, "setup", setup_seconds);
  const double f = pace.factor();
  r.note("pace factor " + std::to_string(f));
  r.set("setup_s", median(setup_seconds) * f, "s");
  r.set("throughput_per_s", work_units / work_seconds / f, "1/s");
}

/// Sets caller.latency_p90_ms, the p90 of the latencies a caller waits
/// for, from the untraced calls of a traced run. It is a per-layer
/// metric because its run-to-run spread is too wide for a bound.
inline void report_tail(Report& r, const std::vector<double>& seconds) {
  r.set("caller.latency_p90_ms", quantile(seconds, 0.9) * 1e3, "ms");
}

/// Bit-level equality of two distributed states: same layout, same
/// shard bytes.
inline bool same_state(const atlas::exec::DistState& a,
                       const atlas::exec::DistState& b) {
  if (a.num_shards() != b.num_shards() ||
      a.layout().phys_of_logical != b.layout().phys_of_logical ||
      a.layout().shard_xor != b.layout().shard_xor)
    return false;
  for (int s = 0; s < a.num_shards(); ++s)
    if (std::memcmp(a.shard(s).data(), b.shard(s).data(),
                    a.shard(s).size() * sizeof(atlas::Amp)) != 0)
      return false;
  return true;
}

/// Digest of a state's layout and amplitude bits. Word-wise (FNV-1a
/// over 64-bit words, not bytes) so hashing a 2^21-amplitude state
/// stays a few milliseconds.
inline std::uint64_t state_hash(const atlas::exec::DistState& s) {
  atlas::Fnv f;
  for (int p : s.layout().phys_of_logical)
    f.mix(static_cast<std::uint64_t>(p));
  f.mix(s.layout().shard_xor);
  std::uint64_t h = f.value();
  for (int k = 0; k < s.num_shards(); ++k) {
    const std::vector<atlas::Amp>& shard = s.shard(k);
    const std::size_t words = shard.size() * 2;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits;
      std::memcpy(&bits, reinterpret_cast<const char*>(shard.data()) + 8 * w,
                  8);
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return h;
}

/// Seconds of each timed call of `setup`: 5 calls, then more (up to 25)
/// while they have taken under a second in all, so that the median of
/// millisecond set-ups rests on enough samples. `teardown` and the pace
/// loop run off the clock before each call, so no set-up pays for
/// destroying the last.
template <typename Teardown, typename Setup>
std::vector<double> time_setups(Pace& pace, Teardown&& teardown,
                                Setup&& setup) {
  std::vector<double> seconds;
  while (seconds.size() < 5 || (seconds.size() < 25 && sum(seconds) < 1.0)) {
    teardown();
    pace.sample();
    const double t0 = now_s();
    setup();
    seconds.push_back(now_s() - t0);
  }
  return seconds;
}

/// Workload entry points (one file each).
void oneshot_table1(const Options& opt, Report& report, Recorder& rec);
void vqe_sweep(const Options& opt, Report& report, Recorder& rec);
void noisy_offload(const Options& opt, Report& report, Recorder& rec);
void serve_mix(const Options& opt, Report& report, Recorder& rec);

}  // namespace bench
