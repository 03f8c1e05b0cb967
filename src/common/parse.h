#pragma once

/// \file parse.h
/// Whole-string parsing of unsigned decimal integers, for command-line
/// flags and text formats that must refuse junk instead of reading it
/// as 0.

#include <charconv>
#include <cstdint>
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

}  // namespace atlas
