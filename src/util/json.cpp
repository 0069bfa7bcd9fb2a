#include "util/json.hpp"

#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp {

namespace {

std::string kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const std::string& what, const char* want,
                             JsonValue::Kind got) {
  throw UsageError(strformat("json: %s: expected %s, got %s", what.c_str(),
                             want, kind_name(got).c_str()));
}

}  // namespace

/// Recursive-descent parser over the input span.  Depth is bounded so a
/// hostile deeply-nested line cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& msg) const {
    throw UsageError(
        strformat("json: %s (at byte %zu)", msg.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(strformat("expected '%c'", c));
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      for (const auto& [prev, _] : v.object_) {
        if (prev == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The emitters only escape control characters, so BMP coverage
          // via direct UTF-8 encoding is sufficient; surrogate pairs are
          // rejected rather than silently mangled.
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape");
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    // JSON grammar: int part is 0 or [1-9][0-9]*; leading zeros rejected.
    const std::size_t int_start = pos_;
    if (digits() == 0) fail("bad number");
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("bad number exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v.number_)) fail("number out of range");
    // Keep the source token: exact u64 reads (as_unsigned) must not go
    // through the double, which cannot represent every 64-bit integer.
    v.string_ = token;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool JsonValue::as_bool(const std::string& what) const {
  if (kind_ != Kind::kBool) kind_error(what, "bool", kind_);
  return bool_;
}

double JsonValue::as_number(const std::string& what) const {
  if (kind_ != Kind::kNumber) kind_error(what, "number", kind_);
  return number_;
}

std::uint64_t JsonValue::as_unsigned(const std::string& what) const {
  if (kind_ != Kind::kNumber) kind_error(what, "number", kind_);
  const auto bad = [&]() -> std::uint64_t {
    throw UsageError(strformat(
        "json: %s: expected a nonnegative integer (got %s)", what.c_str(),
        string_.c_str()));
  };
  if (const auto v = parse_u64(string_)) return *v;
  // Scientific / fractional spellings ("5e3") are accepted only while the
  // double is exactly integral and small enough to be exact (a plain
  // decimal past 2^64 - 1 is far beyond that).
  if (!(number_ >= 0.0) || number_ != std::floor(number_) ||
      number_ > 9007199254740992.0) {
    return bad();
  }
  return static_cast<std::uint64_t>(number_);
}

const std::string& JsonValue::as_string(const std::string& what) const {
  if (kind_ != Kind::kString) kind_error(what, "string", kind_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array(
    const std::string& what) const {
  if (kind_ != Kind::kArray) kind_error(what, "array", kind_);
  return array_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members(
    const std::string& what) const {
  if (kind_ != Kind::kObject) kind_error(what, "object", kind_);
  return object_;
}

std::string json_escape_string(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += strformat("\\u%04x", ch);
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  for (int prec = 6; prec <= 17; ++prec) {
    std::string s = strformat("%.*g", prec, v);
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return strformat("%.17g", v);
}

}  // namespace llamp
