#include "common/json.hpp"

#include <charconv>

namespace esv::common {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw DecodeError("json: " + message + " at offset " +
                      std::to_string(pos_));
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
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // The parser recurses once per nesting level; cap it.
      if (++depth_ > kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      }
      Json value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    switch (c) {
      case '"': {
        Json value;
        value.type_ = Json::Type::kString;
        value.scalar_ = parse_string();
        return value;
      }
      case 't': {
        if (!consume("true")) fail("bad literal");
        Json value;
        value.type_ = Json::Type::kBool;
        value.bool_ = true;
        return value;
      }
      case 'f': {
        if (!consume("false")) fail("bad literal");
        Json value;
        value.type_ = Json::Type::kBool;
        value.bool_ = false;
        return value;
      }
      case 'n': {
        if (!consume("null")) fail("bad literal");
        return Json{};
      }
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json value;
    value.type_ = Json::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.members_[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json value;
    value.type_ = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.items_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // The writers only \u-escape control characters; decode the full
          // BMP anyway so foreign-but-valid input does not wedge a stream.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    Json value;
    value.type_ = Json::Type::kNumber;
    value.scalar_ = std::string(text_.substr(start, pos_ - start));
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw DecodeError(std::string("json: value is not ") + wanted);
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("a bool");
  return bool_;
}

std::uint64_t Json::as_u64() const {
  if (type_ != Type::kNumber) type_error("a number");
  std::uint64_t out = 0;
  const auto result =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (result.ec != std::errc{} ||
      result.ptr != scalar_.data() + scalar_.size()) {
    type_error("an unsigned integer");
  }
  return out;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) type_error("a number");
  try {
    return std::stod(scalar_);
  } catch (const std::exception&) {
    type_error("a double");
  }
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("a string");
  return scalar_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) type_error("an array");
  return items_;
}

bool Json::has(const std::string& key) const {
  return type_ == Type::kObject && members_.count(key) != 0;
}

const std::map<std::string, Json>& Json::members() const {
  if (type_ != Type::kObject) type_error("an object");
  return members_;
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) type_error("an object");
  const auto it = members_.find(key);
  if (it == members_.end()) {
    throw DecodeError("json: missing member \"" + key + "\"");
  }
  return it->second;
}

std::uint64_t Json::u64_or(const std::string& key,
                           std::uint64_t fallback) const {
  return has(key) ? at(key).as_u64() : fallback;
}

double Json::double_or(const std::string& key, double fallback) const {
  return has(key) ? at(key).as_double() : fallback;
}

std::string Json::string_or(const std::string& key,
                            const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  return has(key) ? at(key).as_bool() : fallback;
}

std::string json_string(std::string_view text) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace esv::common
