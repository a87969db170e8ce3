/// \file error.hpp
/// \brief Error handling primitives used across the library.
///
/// Follows the C++ Core Guidelines (E.2): throw exceptions to signal that a
/// function cannot perform its task. All library errors derive from
/// cosmo::Error so callers can catch one type at an API boundary.
#pragma once

#include <stdexcept>
#include <string>

namespace cosmo {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller passed an argument outside the documented domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A serialized stream (compressed payload, container file) is malformed.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// An I/O operation on the filesystem failed.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// A transient (retryable) failure: the operation may succeed if retried.
/// Thrown by the GPU simulator for injected soft errors; DeviceCompressor
/// retries these with bounded exponential backoff.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what) : Error(what) {}
};

/// Device memory was exhausted. Not retryable at the same footprint; callers
/// degrade by falling back to the matching host codec.
class OutOfMemoryError : public Error {
 public:
  explicit OutOfMemoryError(const std::string& what) : Error(what) {}
};

namespace detail {
// Out of line and cold: the exception and its message are built only on the
// failing branch, so an inlined passing check is one compare and one branch.
[[noreturn]] void throw_invalid_argument(const char* msg);
[[noreturn]] void throw_format_error(const char* msg);
}  // namespace detail

/// Throws InvalidArgument with \p msg when \p cond is false. A literal
/// message binds to the const char* overload and costs nothing when the
/// check passes; a composed std::string is built by the caller before the
/// call, so keep composed messages off per-element paths.
inline void require(bool cond, const char* msg) {
  if (!cond) [[unlikely]] detail::throw_invalid_argument(msg);
}
inline void require(bool cond, const std::string& msg) {
  if (!cond) [[unlikely]] detail::throw_invalid_argument(msg.c_str());
}

/// Throws FormatError with \p msg when \p cond is false (same overloads
/// and cost as require()).
inline void require_format(bool cond, const char* msg) {
  if (!cond) [[unlikely]] detail::throw_format_error(msg);
}
inline void require_format(bool cond, const std::string& msg) {
  if (!cond) [[unlikely]] detail::throw_format_error(msg.c_str());
}

}  // namespace cosmo
