// Strict readers for the environment-variable knobs: PHOTODTN_THREADS and
// the benches' PHOTODTN_BENCH_* settings.
#pragma once

#include <cstdint>
#include <string_view>

namespace photodtn {

/// `text`, the value of environment variable `name`, as a decimal integer
/// in [lo, hi]. The whole text must parse; otherwise throws
/// std::invalid_argument "<name>=<text> is not an integer in [<lo>, <hi>]".
std::int64_t parse_env_int(std::string_view name, std::string_view text,
                           std::int64_t lo, std::int64_t hi);

/// The integer environment variable `name` holds: `fallback` when it is
/// unset or empty, otherwise parse_env_int's value or exception.
std::int64_t env_int(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi);

/// The number environment variable `name` holds: `fallback` when it is
/// unset or empty; otherwise the whole text must parse as a number in
/// [lo, hi], or this throws std::invalid_argument
/// "<name>=<text> is not a number in [<lo>, <hi>]".
double env_double(const char* name, double fallback, double lo, double hi);

}  // namespace photodtn
