// Minimal JSON writer (no parsing, no external deps): enough to export
// experiment results for plotting pipelines. Produces compact, valid JSON
// into one std::string; strings are escaped, doubles are emitted
// round-trippably, and NaN/inf are rendered as null (JSON has no
// representation for them).
//
// Byte contract: the output is independent of the global locale. A double
// is std::to_chars general format at precision 17 (printf's "%.17g"), an
// integer is plain decimal, and keys and strings are escaped as written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace photodtn {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value (or container begin).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(bool b);
  JsonWriter& null();

  /// Convenience: key + value.
  template <typename T>
  JsonWriter& kv(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// Convenience: key + array of doubles.
  JsonWriter& kv_array(std::string_view name, const std::vector<double>& values);

  /// Ends one JSON Lines record: appends '\n', and the next top-level
  /// value starts a new record without a comma.
  JsonWriter& end_record();

  /// Sizes the buffer for `bytes` of output up front.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// The document so far. Valid JSON once every container is closed.
  const std::string& str() const& { return out_; }
  /// Moves the document out; the writer is spent.
  std::string str() && { return std::move(out_); }

 private:
  void separator();
  void escape_into(std::string_view s);

  std::string out_;
  // Per-depth "needs comma before next element" flags.
  std::vector<bool> comma_stack_{false};
  bool pending_key_ = false;
};

}  // namespace photodtn
