#pragma once

/// \file fnv.h
/// FNV-1a 64-bit hashing, shared by the circuit fingerprints and the
/// session's plan-cache key salting so the byte-folding can never drift
/// between them.

#include <cstdint>
#include <cstring>
#include <string>

namespace atlas {

class Fnv {
 public:
  static constexpr std::uint64_t kDefaultBasis = 1469598103934665603ull;

  explicit Fnv(std::uint64_t basis = kDefaultBasis) : h_(basis) {}

  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }

  void mix_double(double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }

  void mix_string(const std::string& s) {
    mix(s.size());
    for (char c : s) mix(static_cast<unsigned char>(c));
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

/// FNV-1a folding of `v` into basis `h` — the salting step of the plan
/// keys (pipeline.cpp shape salt, session.cpp engine salt).
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  Fnv f(h);
  f.mix(v);
  return f.value();
}

}  // namespace atlas
