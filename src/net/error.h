// Common error types for the mapit library.
//
// All recoverable failures (malformed input files, out-of-range values) are
// reported with exceptions derived from mapit::Error, so callers can catch a
// single base type at a pipeline boundary.
#pragma once

#include <stdexcept>
#include <string>

namespace mapit {

/// Base class of every exception thrown by the mapit library.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Malformed textual input (addresses, prefixes, dataset files).
class ParseError : public Error {
 public:
  using Error::Error;
};

/// An input file could not be opened; what() is "cannot open <path>".
class OpenError : public Error {
 public:
  using Error::Error;
};

/// A caller violated a documented API precondition.
class InvariantError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn]] inline void fail_invariant(const std::string& what) {
  throw InvariantError(what);
}
}  // namespace detail

/// Checks a documented precondition; throws InvariantError on failure.
#define MAPIT_ENSURE(cond, msg)                                     \
  do {                                                              \
    if (!(cond)) ::mapit::detail::fail_invariant(msg);              \
  } while (false)

}  // namespace mapit
