#include "util/json.h"

#include <charconv>
#include <cmath>

#include "util/check.h"
#include "util/to_chars.h"

namespace photodtn {

void JsonWriter::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows "key":
  }
  if (comma_stack_.back()) out_ += ',';
  comma_stack_.back() = true;
}

void JsonWriter::escape_into(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xfu]};
        out_.append(u, sizeof u);
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  comma_stack_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  comma_stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += '[';
  comma_stack_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  comma_stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separator();
  out_ += '"';
  escape_into(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separator();
  out_ += '"';
  escape_into(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  separator();
  if (!std::isfinite(d)) {
    out_ += "null";
  } else {
    append_chars(out_, d, std::chars_format::general, 17);
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  separator();
  append_chars(out_, i);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  separator();
  append_chars(out_, u);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  separator();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  separator();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::kv_array(std::string_view name,
                                 const std::vector<double>& values) {
  key(name);
  begin_array();
  for (const double v : values) value(v);
  return end_array();
}

JsonWriter& JsonWriter::end_record() {
  PHOTODTN_DCHECK_MSG(comma_stack_.size() == 1 && !pending_key_,
                      "end_record() outside the top level");
  out_ += '\n';
  comma_stack_.back() = false;
  return *this;
}

}  // namespace photodtn
