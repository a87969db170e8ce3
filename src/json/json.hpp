/// \file json.hpp
/// \brief Minimal JSON value model, parser and serializer.
///
/// Foresight pipelines are configured "by only configuring a simple JSON
/// file" (paper Section IV-A); this module provides the required JSON
/// support with no external dependency. Full RFC 8259 value model; numbers
/// are stored as double.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace cosmo::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps deterministic key order for serialization and tests.
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, number (double), string, array or object.
class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(long i) : v_(static_cast<double>(i)) {}
  Value(std::size_t i) : v_(static_cast<double>(i)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw FormatError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] long as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object member access; at() throws when missing, get() returns fallback.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] bool get(const std::string& key, bool fallback) const;

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  bool operator==(const Value&) const = default;

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses a complete JSON document; throws FormatError with offset info on
/// malformed input. Trailing non-whitespace is rejected.
Value parse(std::string_view text);

/// Reads and parses a JSON file; throws IoError / FormatError.
Value parse_file(const std::string& path);

/// Escapes a string per JSON rules (used by the Cinema CSV/HTML emitters too).
std::string escape(const std::string& s);

}  // namespace cosmo::json
