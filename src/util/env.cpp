#include "util/env.h"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>

#include "util/to_chars.h"

namespace photodtn {

namespace {

/// The variable's text, or nullptr when it is unset or empty.
const char* env_text(const char* name) {
  // getenv is MT-safe as long as nothing calls setenv concurrently; the
  // process never mutates its environment, so the glibc caveat is moot.
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  return v == nullptr || *v == '\0' ? nullptr : v;
}

/// `text` parsed whole as a T in [lo, hi] (a NaN fails the range test);
/// otherwise throws "<name>=<text> is not <what> in [<lo>, <hi>]".
template <typename T>
T parse_in_range(std::string_view name, std::string_view text, T lo, T hi,
                 const char* what) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc{} && end == last && v >= lo && v <= hi) return v;
  std::string msg(name);
  msg += '=';
  msg += text;
  msg += " is not ";
  msg += what;
  msg += " in [";
  append_chars(msg, lo);
  msg += ", ";
  append_chars(msg, hi);
  msg += ']';
  throw std::invalid_argument(msg);
}

}  // namespace

std::int64_t parse_env_int(std::string_view name, std::string_view text,
                           std::int64_t lo, std::int64_t hi) {
  return parse_in_range(name, text, lo, hi, "an integer");
}

std::int64_t env_int(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi) {
  const char* v = env_text(name);
  return v == nullptr ? fallback : parse_env_int(name, v, lo, hi);
}

double env_double(const char* name, double fallback, double lo, double hi) {
  const char* v = env_text(name);
  return v == nullptr ? fallback : parse_in_range(name, v, lo, hi, "a number");
}

}  // namespace photodtn
