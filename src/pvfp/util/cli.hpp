#pragma once
/// \file cli.hpp
/// Checked command-line value parsing shared by the example CLIs.
///
/// A bare std::stoi/std::atof on a flag value turns `--shard=abc` into
/// an uncaught exception (or a silent 0) instead of a usage message, so
/// every CLI routes its numeric flags through these helpers: full-string
/// parses that name the offending flag and value in one UsageError,
/// which the binaries translate into their usage text and exit code 2.
/// Header-only; the heavy lifting is std::from_chars / strtod with an
/// all-characters-consumed check.

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "pvfp/geo/horizon.hpp"
#include "pvfp/util/error.hpp"

namespace pvfp::cli {

/// A malformed or out-of-range command-line value: the message names the
/// flag and the rejected text.  CLIs catch this, print usage, exit 2.
class UsageError : public Error {
public:
    explicit UsageError(const std::string& what) : Error(what) {}
};

namespace detail {

[[noreturn]] inline void bad_value(const std::string& flag,
                                   const std::string& value,
                                   const char* expected) {
    throw UsageError("bad value for " + flag + ": '" + value + "' (" +
                     expected + ")");
}

template <typename I>
I parse_integer(const std::string& flag, const std::string& value,
                const char* expected, I min, I max) {
    I out{};
    const char* begin = value.data();
    const char* end = begin + value.size();
    const auto [ptr, ec] = std::from_chars(begin, end, out);
    if (ec != std::errc() || ptr != end || value.empty())
        bad_value(flag, value, expected);
    if (out < min || out > max)
        throw UsageError("bad value for " + flag + ": '" + value +
                         "' (out of range [" + std::to_string(min) + ", " +
                         std::to_string(max) + "])");
    return out;
}

}  // namespace detail

/// Parse a whole-string integer in [\p min, \p max]; throws UsageError
/// naming \p flag on any other input (empty, trailing garbage, overflow).
inline int parse_int(const std::string& flag, const std::string& value,
                     int min = std::numeric_limits<int>::min(),
                     int max = std::numeric_limits<int>::max()) {
    return detail::parse_integer<int>(flag, value, "expected an integer",
                                      min, max);
}

inline long parse_long(const std::string& flag, const std::string& value,
                       long min = std::numeric_limits<long>::min(),
                       long max = std::numeric_limits<long>::max()) {
    return detail::parse_integer<long>(flag, value, "expected an integer",
                                       min, max);
}

inline std::uint64_t parse_u64(
    const std::string& flag, const std::string& value,
    std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    return detail::parse_integer<std::uint64_t>(
        flag, value, "expected an unsigned integer", min, max);
}

/// Parse a --sectors value: an integer in [4, geo::kMaxAzimuthSectors],
/// the range HorizonMap accepts, so a bad count is a usage error up
/// front instead of a per-roof error or an unbounded allocation.
inline int parse_sectors(const std::string& flag, const std::string& value) {
    return parse_int(flag, value, 4, geo::kMaxAzimuthSectors);
}

/// Parse a whole-string finite double; throws UsageError naming \p flag
/// on malformed input, trailing garbage, or a value outside
/// [\p min, \p max].
inline double parse_double(
    const std::string& flag, const std::string& value,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max()) {
    if (value.empty()) detail::bad_value(flag, value, "expected a number");
    errno = 0;
    char* end = nullptr;
    const double out = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size() || errno == ERANGE)
        detail::bad_value(flag, value, "expected a number");
    if (!(out >= min && out <= max))  // also rejects NaN
        detail::bad_value(flag, value, "number out of range");
    return out;
}

}  // namespace pvfp::cli
