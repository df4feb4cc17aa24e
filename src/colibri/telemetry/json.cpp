#include "colibri/telemetry/json.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>

namespace colibri::telemetry {

namespace {

constexpr std::size_t kMaxDepth = 64;  // skip() recurses once per level

// Overlong forms, surrogates, code points past U+10FFFF and stray or
// missing continuation bytes are all invalid.
bool utf8_valid(std::string_view s) {
  static constexpr std::uint32_t kMinCp[] = {0, 0, 0x80, 0x800, 0x10000};
  for (std::size_t i = 0; i < s.size();) {
    const auto b = static_cast<unsigned char>(s[i]);
    const std::size_t len = b < 0x80          ? 1
                            : (b >> 5) == 0x6  ? 2
                            : (b >> 4) == 0xE  ? 3
                            : (b >> 3) == 0x1E ? 4
                                               : 0;
    if (len == 0 || i + len > s.size()) return false;
    std::uint32_t cp = len == 1 ? b : b & (0x7Fu >> len);
    for (std::size_t k = 1; k < len; ++k) {
      const auto c = static_cast<unsigned char>(s[i + k]);
      if ((c >> 6) != 0x2) return false;
      cp = (cp << 6) | (c & 0x3Fu);
    }
    if (cp < kMinCp[len] || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += len;
  }
  return true;
}

}  // namespace

// --- writer -----------------------------------------------------------------

void JsonWriter::begin_token() {
  if (need_comma_ && depth_ > 0) out_.push_back(',');
  out_ += std::exchange(pending_, {});
}

JsonWriter& JsonWriter::open(char bracket) {
  begin_token();
  out_.push_back(bracket);
  ++depth_;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  out_ += std::exchange(pending_, {});
  out_.push_back(bracket);
  --depth_;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  str(k);
  out_.push_back(':');
  need_comma_ = false;
  return *this;
}

// The one escaping routine: quote, backslash and control bytes; every
// other byte (UTF-8 included) is written verbatim.
JsonWriter& JsonWriter::str(std::string_view s) {
  static constexpr std::string_view kRaw = "\"\\\n\r\t";
  static constexpr std::string_view kEscaped = "\"\\nrt";
  static constexpr char kHex[] = "0123456789abcdef";
  begin_token();
  out_.push_back('"');
  for (const char c : s) {
    if (const std::size_t i = kRaw.find(c); i != std::string_view::npos) {
      out_ += {'\\', kEscaped[i]};
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
    } else {
      out_.push_back(c);
    }
  }
  out_.push_back('"');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  begin_token();
  out_ += json;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::layout(std::string_view ws) {
  (depth_ == 0 ? out_ : pending_) += ws;
  return *this;
}

// --- reader -----------------------------------------------------------------

char JsonReader::peek() {
  if (!ok_) return '\0';
  pos_ = std::min(s_.find_first_not_of(" \t\n\r", pos_), s_.size());
  return pos_ < s_.size() ? s_[pos_] : '\0';
}

bool JsonReader::consume(char c) {
  if (peek() != c) ok_ = false;
  if (ok_) ++pos_;
  return ok_;
}

bool JsonReader::eat(char c) {
  if (pos_ >= s_.size() || s_[pos_] != c) return false;
  ++pos_;
  return true;
}

void JsonReader::literal(std::string_view word) {
  if (s_.substr(pos_, word.size()) != word) ok_ = false;
  if (ok_) pos_ += word.size();
}

void JsonReader::open(char bracket) {
  if (keys_.size() >= kMaxDepth) ok_ = false;
  if (consume(bracket)) keys_.emplace_back();
  first_ = true;
}

bool JsonReader::next(char bracket) {
  if (keys_.empty()) ok_ = false;
  if (!ok_) return false;
  if (peek() == bracket) {
    ++pos_;
    keys_.pop_back();
    first_ = false;  // the closed container was a member of its parent
    return false;
  }
  // A comma promises another member: `{"k":1,}` is malformed.
  if (!first_ && !consume(',')) return false;
  first_ = false;
  return true;
}

bool JsonReader::next_key(std::string& key) {
  if (!next('}')) return false;
  key = str();
  std::vector<std::string>& seen = keys_.back();
  if (std::find(seen.begin(), seen.end(), key) != seen.end()) ok_ = false;
  seen.push_back(key);
  return consume(':');
}

JsonReader& JsonReader::key(std::string_view name) {
  std::string k;
  if (!next_key(k) || k != name) ok_ = false;
  return *this;
}

void JsonReader::end_object() {
  std::string k;
  if (next_key(k)) ok_ = false;
}

std::string JsonReader::str() {
  static constexpr std::string_view kEscapes = "\"\\/bfnrt";
  static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
  std::string out;
  if (!consume('"')) return out;
  while (ok_ && pos_ < s_.size() && s_[pos_] != '"') {
    const char c = s_[pos_++];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    const char e = pos_ < s_.size() ? s_[pos_++] : '\0';
    if (const std::size_t i = kEscapes.find(e); i != std::string_view::npos) {
      out.push_back(kDecoded[i]);
      continue;
    }
    // \u: exactly four hex digits (\uZZZZ is malformed, not 0), and no
    // surrogate halves, which are not code points.
    unsigned cp = 0;
    const char* h = s_.data() + pos_;
    if (e != 'u' || pos_ + 4 > s_.size() ||
        std::from_chars(h, h + 4, cp, 16).ptr != h + 4 ||
        (cp >= 0xD800 && cp <= 0xDFFF)) {
      ok_ = false;
      break;
    }
    pos_ += 4;
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }
  if (!eat('"') || !utf8_valid(out)) ok_ = false;
  return ok_ ? out : std::string();
}

void JsonReader::digits() {
  const std::size_t end =
      std::min(s_.find_first_not_of("0123456789", pos_), s_.size());
  if (end == pos_) ok_ = false;
  pos_ = end;
}

std::uint64_t JsonReader::magnitude() {
  std::uint64_t v = 0;
  const char* end = s_.data() + s_.size();
  const auto [stop, ec] = std::from_chars(s_.data() + pos_, end, v);
  if (ec != std::errc{}) ok_ = false;  // no digits, or past u64
  pos_ = static_cast<std::size_t>(stop - s_.data());
  return ok_ ? v : 0;
}

std::uint64_t JsonReader::u64() {
  if (peek() == '-') ok_ = false;
  return ok_ ? magnitude() : 0;
}

std::int64_t JsonReader::i64() {
  const bool negative = peek() == '-' && eat('-');
  const std::uint64_t mag = ok_ ? magnitude() : 0;
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (mag > kMax + (negative ? 1 : 0)) ok_ = false;
  if (!ok_) return 0;
  // Negate in unsigned arithmetic: -2^63 has no positive i64 twin.
  return static_cast<std::int64_t>(negative ? ~mag + 1 : mag);
}

void JsonReader::skip() {
  std::string k;
  switch (peek()) {
    case '{':
      begin_object();
      while (next_key(k)) skip();
      break;
    case '[':
      open('[');
      while (next(']')) skip();
      break;
    case '"': (void)str(); break;
    case 't': literal("true"); break;
    case 'f': literal("false"); break;
    case 'n': literal("null"); break;
    default:
      // Any number: sign, integer part, optional fraction and exponent,
      // at any magnitude (only u64() and i64() bound the range).
      eat('-');
      digits();
      if (eat('.')) digits();
      if (eat('e') || eat('E')) {
        if (!eat('+')) eat('-');
        digits();
      }
  }
}

}  // namespace colibri::telemetry
