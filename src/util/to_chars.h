// Locale-free number formatting: std::to_chars writes the bytes the C
// locale's printf would, whatever std::locale::global is set to, so files
// written through it read back the same everywhere.
#pragma once

#include <charconv>
#include <string>
#include <system_error>

#include "util/check.h"

namespace photodtn {

/// Appends `v` as std::to_chars(first, last, v, format...) writes it. For a
/// double, (std::chars_format::general, p) is printf's "%.<p>g"; p <= 17.
template <typename T, typename... Format>
void append_chars(std::string& out, T v, Format... format) {
  char buf[32];  // longest: a "%.17g" double like -1.2345678901234567e-308
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof buf, v, format...);
  PHOTODTN_DCHECK(res.ec == std::errc());
  out.append(buf, res.ptr);
}

}  // namespace photodtn
