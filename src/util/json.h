// Minimal JSON writer (no parsing, no external deps): every sink writes
// through it, one writer per document. Produces compact, valid JSON into
// one std::string; strings are escaped, doubles are emitted round-trippably,
// and NaN/inf are rendered as null (JSON has no representation for them).
//
// Byte contract: the output is independent of the global locale. A double
// is std::to_chars general format at precision 17 (printf's "%.17g"), an
// integer is plain decimal, and keys and strings are escaped as written.
//
// Design. A sink's cost is per token, not per byte, so each token is
// written by an inline member into a fixed staging buffer, which is
// appended to the document whenever it runs out of room:
// - a key or string with nothing to escape is one memcpy, written together
//   with its separator and quotes;
// - nesting is a 64-bit "container has an element" mask plus a depth, one
//   bit per level, so containers nest at most kMaxDepth deep;
// - a finite double that holds an integer of magnitude below 1e15, other
//   than -0.0, goes through the integer formatter. Below 1e17, "%.17g"
//   prints an integral double in fixed notation with its exact digits and
//   then strips the all-zero fraction and the point, which leaves the
//   integer's decimal digits. Every integer below 1e15 (< 2^53) is a double,
//   so the conversion to int64 is exact. Every other double goes through
//   to_chars(general, 17), the one slow token;
// - the members marked always_inline are the ones GCC otherwise leaves out
//   of line at -O2 and -O3, which made a provenance line a third slower.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace photodtn {

class JsonWriter {
 public:
  /// Deepest nesting of containers: the mask has one bit per level, and
  /// bit 0 is the top level.
  static constexpr int kMaxDepth = 63;
  /// Size of the staging buffer: a document reaches its std::string in
  /// appends of at most this many bytes.
  static constexpr std::size_t kBufferBytes = 4096;

  JsonWriter() = default;
  // One writer per document. A copy would read the staging buffer's
  // unwritten bytes.
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Object key; must be followed by a value (or container begin).
  [[gnu::always_inline]] JsonWriter& key(std::string_view name) {
    string_token(name, /*is_key=*/true);
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    string_token(s, /*is_key=*/false);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  [[gnu::always_inline]] JsonWriter& value(double d) {
    if (d > -1e15 && d < 1e15) {  // false for NaN
      const auto i = static_cast<std::int64_t>(d);
      if (static_cast<double>(i) == d && (i != 0 || !std::signbit(d))) return value(i);
    }
    return value_general(d);
  }
  JsonWriter& value(std::int64_t i) {
    char* p = begin_token(kMaxIntegerChars);
    end_token(std::to_chars(p, p + kMaxIntegerChars, i).ptr);
    return *this;
  }
  JsonWriter& value(std::uint64_t u) {
    char* p = begin_token(kMaxIntegerChars);
    end_token(std::to_chars(p, p + kMaxIntegerChars, u).ptr);
    return *this;
  }
  JsonWriter& value(bool b) { return literal(b ? std::string_view("true") : "false"); }
  JsonWriter& null() { return literal("null"); }

  /// Convenience: key + value.
  template <typename T>
  [[gnu::always_inline]] JsonWriter& kv(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// Convenience: key + array of doubles.
  JsonWriter& kv_array(std::string_view name, const std::vector<double>& values);

  /// Ends one JSON Lines record: appends '\n', and the next top-level
  /// value starts a new record without a comma.
  JsonWriter& end_record() {
    PHOTODTN_DCHECK_MSG(depth_ == 0 && !pending_key_,
                        "end_record() outside the top level");
    put('\n');
    has_element_ = 0;
    return *this;
  }

  /// Sizes the document for `bytes` of output up front.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// The document so far. Valid JSON once every container is closed.
  const std::string& str() & {
    flush();
    return out_;
  }
  /// Moves the document out; the writer is spent.
  std::string str() && {
    flush();
    return std::move(out_);
  }

 private:
  // "-9223372036854775808" and "18446744073709551615".
  static constexpr std::size_t kMaxIntegerChars = 20;

  /// Room for a separator and `n` more bytes; writes the separator and
  /// returns where the token goes. n < kBufferBytes.
  [[gnu::always_inline]] char* begin_token(std::size_t n) {
    if (kBufferBytes - len_ <= n) flush();
    char* p = buf_ + len_;
    const std::uint64_t level = std::uint64_t{1} << depth_;
    // A value after its key takes no comma; the key set the level's bit.
    *p = ',';
    p += (has_element_ & level) != 0 && !pending_key_;
    has_element_ |= level;
    pending_key_ = false;
    return p;
  }
  void end_token(const char* p) { len_ = static_cast<std::size_t>(p - buf_); }
  /// One byte with no separator: a closing bracket or a record's end.
  void put(char c) {
    if (len_ == kBufferBytes) flush();
    buf_[len_++] = c;
  }

  JsonWriter& open(char bracket) {
    PHOTODTN_CHECK_MSG(depth_ < kMaxDepth, "JSON nesting deeper than kMaxDepth");
    char* p = begin_token(1);
    *p++ = bracket;
    end_token(p);
    ++depth_;
    has_element_ &= ~(std::uint64_t{1} << depth_);
    return *this;
  }
  JsonWriter& close(char bracket) {
    PHOTODTN_DCHECK_MSG(depth_ > 0, "closing a container that is not open");
    put(bracket);
    --depth_;
    return *this;
  }

  JsonWriter& literal(std::string_view text) {
    char* p = begin_token(text.size());
    std::memcpy(p, text.data(), text.size());
    end_token(p + text.size());
    return *this;
  }

  static bool needs_escape(std::string_view s) noexcept {
    bool any = false;  // no early exit, so long strings vectorize
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      any |= (u < 0x20) | (u == '"') | (u == '\\');
    }
    return any;
  }

  /// `"s"`, plus ':' after a key.
  [[gnu::always_inline]] void string_token(std::string_view s, bool is_key) {
    if (s.size() + 3 >= kBufferBytes || needs_escape(s)) {
      escaped_token(s, is_key);
      return;
    }
    char* p = begin_token(s.size() + 3);
    *p++ = '"';
    std::memcpy(p, s.data(), s.size());
    p += s.size();
    *p++ = '"';
    *p = ':';
    end_token(p + is_key);
  }

  void flush() {
    out_.append(buf_, len_);
    len_ = 0;
  }

  // Cold paths, in json.cpp.
  void escaped_token(std::string_view s, bool is_key);
  void append(const char* data, std::size_t n);
  JsonWriter& value_general(double d);

  std::string out_;
  std::size_t len_ = 0;  // bytes staged in buf_
  int depth_ = 0;        // open containers
  // Bit d: the container open at depth d (the top level at 0) already has
  // an element, so the next one takes a comma.
  std::uint64_t has_element_ = 0;
  bool pending_key_ = false;
  char buf_[kBufferBytes];
};

}  // namespace photodtn
