#pragma once
// Minimal JSON value model for the stress-service wire protocol.
//
// The daemon speaks length-prefixed JSON (server/protocol.h), and the repo
// deliberately carries no third-party dependencies, so this is the smallest
// JSON layer the protocol needs: null/bool/number/string/array/object,
// strict parsing with positioned errors, and deterministic serialization.
//
// Numbers are IEEE doubles serialized with "%.17g", which round-trips every
// finite double exactly through strtod. The protocol relies on this: stress
// values crossing the wire compare *bitwise* against an in-process
// evaluation (see test_server), so the service can advertise
// the same determinism contract as the batch CLI. NaN/Inf are rejected on
// serialization (JSON has no spelling for them; a field with NaN stress is
// a bug upstream, not a transport problem).
//
// Objects preserve insertion order (vector of pairs, not a map): responses
// serialize in the order handlers build them, so wire bytes are stable
// across runs and the protocol docs can show literal transcripts.

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace tsv::server {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  /// Any integer width converts through double (wire numbers are doubles;
  /// counters stay exact up to 2^53, far beyond any real counter here).
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T> &&
                                                    !std::is_same_v<T, bool>>>
  JsonValue(T n) : JsonValue(static_cast<double>(n)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  static JsonValue object() { return JsonValue(Object{}); }
  static JsonValue array() { return JsonValue(Array{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors; throw tsv::InvalidInputError on a type mismatch so a
  /// malformed request fails with the protocol's invalid-input category.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Mutable builders (require the matching type).
  Array& items();
  /// Appends (key, value) — keys are not deduplicated; build each once.
  JsonValue& set(const std::string& key, JsonValue value);

  /// Object field lookup: nullptr when absent (or when not an object).
  const JsonValue* find(const std::string& key) const;
  /// Required object field; throws tsv::InvalidInputError when missing.
  const JsonValue& at(const std::string& key) const;

  /// Optional-field conveniences for request parsing.
  double number_or(const std::string& key, double fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

  /// Compact one-line serialization (no whitespace). Throws
  /// tsv::InvalidInputError on non-finite numbers.
  std::string dump() const;

  /// Strict parse of exactly one JSON document (trailing garbage rejected).
  /// Throws tsv::InvalidInputError with the byte offset on malformed input.
  static JsonValue parse(const std::string& text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace tsv::server
