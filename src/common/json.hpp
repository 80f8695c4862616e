// The repo's one JSON codec: a lossless value type and parser, and the one
// string escaper every writer (campaign report, trace JSONL, wire frames,
// journal records, fuzz reproducers) shares.
//
// The serializers are hand-written streams; the parser only has to read
// their output back losslessly — uint64-exact numbers, escaped strings —
// which rules out double-based general-purpose parsers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace esv::common {

/// Raised on malformed encoded input: bad JSON, JSON of the wrong shape, and
/// (through dist::WireError, an alias of this type) bad frames and transport
/// failures. One type means one catch for every decode path.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deepest container nesting Json::parse accepts. The repo's own writers
/// nest about five levels; the cap keeps a hostile document from exhausting
/// the stack of the recursive parser.
constexpr std::size_t kMaxJsonDepth = 64;

/// Minimal immutable JSON value. Numbers keep their source text so uint64
/// payloads (seeds, counters) survive exactly; accessors throw DecodeError
/// on type mismatches so corrupt input becomes a clean decode error.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (trailing whitespace allowed, nothing else).
  /// Throws DecodeError on malformed input or nesting past kMaxJsonDepth.
  static Json parse(std::string_view text);

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  std::uint64_t as_u64() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  // arrays

  /// Object member access. at() throws DecodeError when the key is absent.
  bool has(const std::string& key) const;
  const Json& at(const std::string& key) const;
  const std::map<std::string, Json>& members() const;  // objects

  /// Lenient object accessors for optional fields.
  std::uint64_t u64_or(const std::string& key, std::uint64_t fallback) const;
  double double_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string scalar_;  // number text or string value
  std::vector<Json> items_;
  std::map<std::string, Json> members_;
  friend class JsonParser;
};

/// `"..."` — `text` as a complete JSON string literal: `"`, `\`, `\n`, `\r`
/// and `\t` get their short escapes, every other byte below 0x20 becomes
/// `\u00xx` (lower-case hex), and all other bytes pass through unchanged.
std::string json_string(std::string_view text);

}  // namespace esv::common
