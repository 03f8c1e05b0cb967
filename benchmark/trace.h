#pragma once

// Benchmark-local span recorder for the traced run. Each span holds its
// name, the op it belongs to, its parent span, start, end and thread.
// Spans stay in memory until the run ends and are then written as
// Chrome trace-event JSON. The engine's own tracer is not used: its
// per-thread rings overwrite on long runs and its events carry neither
// a parent nor an op id.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

class Recorder {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1;  ///< -1: a root span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int thread = 0;
  };

  /// Per-name sums over every recorded span. Self time is a span's
  /// duration minus the durations of its children; children always run
  /// on their parent's thread, nested inside it, so they never overlap.
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };

  explicit Recorder(bool enabled) : enabled_(enabled) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Times one call into a layer. Always measures (the workloads read
  /// end() for their metrics); records a span only when the recorder is
  /// enabled. Scopes nest per thread.
  class Scope {
   public:
    Scope(Recorder& rec, const char* name, std::uint64_t op)
        : rec_(rec), name_(name), op_(op), start_ns_(now_ns()) {
      if (rec_.enabled_) {
        id_ = rec_.next_id_.fetch_add(1, std::memory_order_relaxed);
        parent_ = open_stack().empty() ? -1 : open_stack().back();
        open_stack().push_back(id_);
      }
    }
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (idempotent) and returns its duration in seconds.
    double end() {
      if (end_ns_ == 0) {
        end_ns_ = now_ns();
        if (rec_.enabled_) {
          open_stack().pop_back();
          rec_.add(Span{name_, op_, id_, parent_, start_ns_, end_ns_,
                        thread_index()});
        }
      }
      return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
    }

   private:
    Recorder& rec_;
    const char* name_;
    std::uint64_t op_;
    std::int64_t id_ = 0;
    std::int64_t parent_ = -1;
    std::int64_t start_ns_;
    std::int64_t end_ns_ = 0;
  };

  std::map<std::string, Totals> totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::int64_t, double> child_s;
    for (const Span& s : spans_)
      if (s.parent >= 0) child_s[s.parent] += duration(s);
    std::map<std::string, Totals> out;
    for (const Span& s : spans_) {
      Totals& t = out[s.name];
      ++t.count;
      t.total_s += duration(s);
      const auto it = child_s.find(s.id);
      t.self_s += duration(s) - (it == child_s.end() ? 0.0 : it->second);
    }
    return out;
  }

  /// Writes every span as Chrome trace-event JSON ("X" events, times
  /// in microseconds from the first span). Returns false on I/O error.
  bool write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"id\":%lld,\"parent\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, s.thread,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   duration(s) * 1e6, static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static double duration(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  static std::vector<std::int64_t>& open_stack() {
    thread_local std::vector<std::int64_t> stack;
    return stack;
  }
  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }
  void add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  const bool enabled_;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace bench
