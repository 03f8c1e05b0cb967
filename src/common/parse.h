#pragma once

/// \file parse.h
/// Whole-string parsing of unsigned decimal integers, for command-line
/// flags and text formats that must refuse junk instead of reading it
/// as 0.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

namespace atlas {

/// Parses all of `text` as a base-10 integer in [lo, hi]. Returns
/// std::nullopt for an empty string, a sign, whitespace or any other
/// non-digit, or a value outside the range.
inline std::optional<std::uint64_t> parse_uint(std::string_view text,
                                               std::uint64_t lo,
                                               std::uint64_t hi) {
  if (text.empty() || text.front() < '0' || text.front() > '9')
    return std::nullopt;
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || value < lo || value > hi)
    return std::nullopt;
  return value;
}

/// parse_uint for one command-line value of a program that runs in
/// [lo, hi], 0 <= lo <= hi: on junk, prints "<program>: <what> '<text>' is not an
/// integer in [lo, hi]" to stderr and exits 2.
inline int parse_arg(const char* program, const char* what, const char* text,
                     int lo, int hi) {
  const auto value = parse_uint(text, static_cast<std::uint64_t>(lo),
                                static_cast<std::uint64_t>(hi));
  if (!value) {
    std::fprintf(stderr, "%s: %s '%s' is not an integer in [%d, %d]\n",
                 program, what, text, lo, hi);
    std::exit(2);
  }
  return static_cast<int>(*value);
}

}  // namespace atlas
