#pragma once

/// \file timer.h
/// Wall-clock timing used by benchmarks and the engine's reports.

#include <chrono>

namespace atlas {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace atlas
