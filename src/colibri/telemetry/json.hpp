// The telemetry layer's one JSON writer and one JSON reader: every
// export is written by JsonWriter and everything read back goes through
// JsonReader (docs/OBSERVABILITY.md §10).
//
// JsonWriter nests containers and places commas itself. It has no
// modes: a caller that wants a layout (one incident-bundle key per
// line, one Perfetto event per line) asks for whitespace with layout(),
// which lands in front of the next token, after its comma.
//
// JsonReader is a strict cursor over one document: strings unescape to
// valid UTF-8, integers are read over exactly the u64 / i64 range, and
// duplicate keys, missing or trailing commas and any byte after the
// document are errors. (Leading zeros and raw control bytes in strings
// are accepted, as the event-line parser always did.) The first error
// latches (later calls return zero values), so a parse reads straight
// through and checks done() once.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace colibri::telemetry {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  // An object member's key; the next call writes its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& u64(std::uint64_t v) { return raw(std::to_string(v)); }
  JsonWriter& i64(std::int64_t v) { return raw(std::to_string(v)); }
  JsonWriter& boolean(bool v) { return raw(v ? "true" : "false"); }
  JsonWriter& null() { return raw("null"); }
  JsonWriter& str(std::string_view s);
  // An already-encoded JSON value, appended verbatim.
  JsonWriter& raw(std::string_view json);
  // Whitespace written just before the next token (after its comma);
  // outside any container it is written at once.
  JsonWriter& layout(std::string_view ws);

  std::string take() { return std::move(out_); }

 private:
  // The comma (unless first in its container or right after a key),
  // then any pending layout.
  void begin_token();
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string out_;
  std::string pending_;
  int depth_ = 0;
  bool need_comma_ = false;
};

class JsonReader {
 public:
  // Keeps a view: `text` must outlive the reader.
  explicit JsonReader(std::string_view text) : s_(text) {}

  // Objects: begin_object(), then next_key() until it returns false,
  // which also consumes the closing brace.
  void begin_object() { open('{'); }
  bool next_key(std::string& key);
  // Fixed schemas: the next key must be `name`; the object ends here.
  JsonReader& key(std::string_view name);
  void end_object();

  std::string str();
  std::uint64_t u64();
  std::int64_t i64();
  // Reads and discards one value of any type (arrays, true, false and
  // null included).
  void skip();

  // First byte of the next token ('\0' at the end or after an error).
  char peek();
  // The input was exactly one complete document.
  bool done() const { return ok_ && keys_.empty() && pos_ == s_.size(); }

 private:
  bool consume(char c);  // the next token must be `c`
  bool eat(char c);      // an optional `c`, no whitespace skipped
  void literal(std::string_view word);  // true, false or null
  void open(char bracket);
  bool next(char bracket);       // false (bracket consumed) at the end
  void digits();                 // one or more, any magnitude
  std::uint64_t magnitude();     // digits as a u64; fails past it

  std::string_view s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  bool first_ = false;  // no member read yet in the innermost container
  // One entry per open container: the keys seen so far (objects only).
  std::vector<std::vector<std::string>> keys_;
};

}  // namespace colibri::telemetry
