#pragma once
/// \file error.hpp
/// Error types and precondition checking used across all pvfp libraries.
///
/// Following the project convention (C++ Core Guidelines I.5/I.10), public
/// API preconditions are enforced with exceptions so that misuse is caught
/// early and is testable; internal invariants use assert.

#include <stdexcept>
#include <string>

namespace pvfp {

/// Base class of every exception thrown by pvfp libraries.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition of a public API.
class InvalidArgument : public Error {
public:
    explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// An I/O operation (raster, CSV, ...) failed or met malformed content.
class IoError : public Error {
public:
    explicit IoError(const std::string& what) : Error(what) {}
};

/// A solver/placer could not produce a feasible result
/// (e.g. more modules requested than the roof can host).
class Infeasible : public Error {
public:
    explicit Infeasible(const std::string& what) : Error(what) {}
};

/// Throw InvalidArgument with \p message unless \p condition holds.
inline void check_arg(bool condition, const std::string& message) {
    if (!condition) throw InvalidArgument(message);
}

/// Literal-message overload: avoids constructing a std::string on the
/// success path, so boundary checks stay free in hot code.
inline void check_arg(bool condition, const char* message) {
    if (!condition) throw InvalidArgument(message);
}

/// Throw IoError with \p message unless \p condition holds.
inline void check_io(bool condition, const std::string& message) {
    if (!condition) throw IoError(message);
}

/// Literal-message overload, as for check_arg: the ASC data scanner
/// checks every value.
inline void check_io(bool condition, const char* message) {
    if (!condition) throw IoError(message);
}

}  // namespace pvfp
