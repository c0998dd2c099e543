#include "util/json.h"

#include <algorithm>

namespace photodtn {

void JsonWriter::append(const char* data, std::size_t n) {
  while (n > 0) {
    if (len_ == kBufferBytes) flush();
    const std::size_t take = std::min(n, kBufferBytes - len_);
    std::memcpy(buf_ + len_, data, take);
    len_ += take;
    data += take;
    n -= take;
  }
}

void JsonWriter::escaped_token(std::string_view s, bool is_key) {
  static constexpr char kHex[] = "0123456789abcdef";
  char* p = begin_token(1);
  *p++ = '"';
  end_token(p);
  std::size_t run = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': append("\\\"", 2); break;
      case '\\': append("\\\\", 2); break;
      case '\n': append("\\n", 2); break;
      case '\r': append("\\r", 2); break;
      case '\t': append("\\t", 2); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xfu]};
        append(u, sizeof u);
      }
    }
  }
  append(s.data() + run, s.size() - run);
  append("\":", is_key ? 2 : 1);
}

JsonWriter& JsonWriter::value_general(double d) {
  // Longest: a "%.17g" double like -1.2345678901234567e-308.
  constexpr std::size_t kMaxDoubleChars = 24;
  char* p = begin_token(kMaxDoubleChars);
  if (!std::isfinite(d)) {
    std::memcpy(p, "null", 4);
    end_token(p + 4);
  } else {
    const std::to_chars_result res =
        std::to_chars(p, p + kMaxDoubleChars, d, std::chars_format::general, 17);
    PHOTODTN_DCHECK(res.ec == std::errc());
    end_token(res.ptr);
  }
  return *this;
}

JsonWriter& JsonWriter::kv_array(std::string_view name,
                                 const std::vector<double>& values) {
  key(name);
  begin_array();
  for (const double v : values) value(v);
  return end_array();
}

}  // namespace photodtn
