#pragma once

/// \file error.h
/// Error handling used across Atlas. Programming errors and violated
/// invariants throw atlas::Error with a formatted message; hot loops use
/// ATLAS_DCHECK which compiles out in release builds.
///
/// Every Error carries an ErrorCode classifying the failure, so layers
/// that translate exceptions into another vocabulary (the serve
/// subsystem maps them to wire status codes) can switch on the code
/// instead of string-matching the message. Checks default to
/// `internal`; input-validation sites use ATLAS_CHECK_ARG (or throw
/// with an explicit code).

#include <sstream>
#include <stdexcept>
#include <string>

namespace atlas {

/// Classification of an atlas::Error, coarse by design (it is a wire
/// vocabulary, not a taxonomy of every failure).
enum class ErrorCode {
  /// Violated invariant or unclassified internal failure.
  internal = 0,
  /// The caller passed something malformed or out of range.
  invalid_argument = 1,
  /// A named entity (optimizer pass, session, handle) does not exist.
  not_found = 2,
  /// A bounded resource (store, queue, admission budget) is full.
  capacity = 3,
  /// The target exists but is refusing work (draining, shut down).
  unavailable = 4,
};

/// Stable lowercase name of `code` ("internal", "invalid_argument", ...).
const char* error_code_name(ErrorCode code);

/// Exception type thrown on any Atlas failure (bad input, violated
/// invariant, infeasible model, ...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what,
                 ErrorCode code = ErrorCode::internal)
      : std::runtime_error(what), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::internal: return "internal";
    case ErrorCode::invalid_argument: return "invalid_argument";
    case ErrorCode::not_found: return "not_found";
    case ErrorCode::capacity: return "capacity";
    case ErrorCode::unavailable: return "unavailable";
  }
  return "internal";
}

namespace detail {

[[noreturn]] inline void fail(const char* cond, const char* file, int line,
                              const std::string& msg,
                              ErrorCode code = ErrorCode::internal) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str(), code);
}

}  // namespace detail
}  // namespace atlas

/// Always-on invariant check. `msg` is streamed, e.g.
/// ATLAS_CHECK(x > 0, "x=" << x).
#define ATLAS_CHECK(cond, ...)                                          \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::ostringstream atlas_check_os_;                               \
      atlas_check_os_ << "" __VA_ARGS__;                                \
      ::atlas::detail::fail(#cond, __FILE__, __LINE__,                  \
                            atlas_check_os_.str());                     \
    }                                                                   \
  } while (0)

/// As ATLAS_CHECK, but classifies the failure as caller error
/// (ErrorCode::invalid_argument) — use at API boundaries validating
/// caller-supplied input.
#define ATLAS_CHECK_ARG(cond, ...)                                      \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::ostringstream atlas_check_os_;                               \
      atlas_check_os_ << "" __VA_ARGS__;                                \
      ::atlas::detail::fail(#cond, __FILE__, __LINE__,                  \
                            atlas_check_os_.str(),                      \
                            ::atlas::ErrorCode::invalid_argument);      \
    }                                                                   \
  } while (0)

#ifdef NDEBUG
#define ATLAS_DCHECK(cond, ...) \
  do {                          \
  } while (0)
#else
#define ATLAS_DCHECK(cond, ...) ATLAS_CHECK(cond, __VA_ARGS__)
#endif
