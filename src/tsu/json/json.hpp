// Minimal JSON document model, parser and writer (RFC 8259 subset).
//
// Exists to parse the paper's REST update messages ({"oldpath": [...],
// "newpath": [...], "wp": ..., "interval": ..., "add": [...]}) and to emit
// machine-readable experiment results, without pulling an external
// dependency into an offline build.
//
// Supported: null, booleans, numbers (stored as double, with an integer
// fast-path), strings with \uXXXX escapes (BMP + surrogate pairs -> UTF-8),
// arrays, objects (insertion-ordered). Limits: configurable nesting depth
// and input size; duplicate keys keep the last value (matching common
// loose parsers, including Python's, which the Ryu prototype used).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tsu/util/status.hpp"

namespace tsu::json {

class Value;

// 2^53: up to this magnitude a JSON number (a double) is an exact integer.
inline constexpr std::int64_t kMaxExactInt = std::int64_t{1} << 53;

using Array = std::vector<Value>;

// Insertion-ordered object: preserves the order keys appear in the input,
// which keeps round-tripped REST messages diffable.
class Object {
 public:
  Value* find(std::string_view key);
  const Value* find(std::string_view key) const;

  // Inserts or overwrites.
  Value& set(std::string key, Value value);

  bool contains(std::string_view key) const { return find(key) != nullptr; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() noexcept : type_(Type::kNull) {}
  Value(std::nullptr_t) noexcept : type_(Type::kNull) {}     // NOLINT
  Value(bool b) noexcept : type_(Type::kBool), bool_(b) {}   // NOLINT
  Value(double d) noexcept : type_(Type::kNumber), num_(d) {}          // NOLINT
  Value(std::int64_t i) noexcept                                        // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Value(int i) noexcept : Value(static_cast<std::int64_t>(i)) {}       // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}   // NOLINT
  Value(const char* s) : Value(std::string(s)) {}                      // NOLINT
  Value(Array a) : type_(Type::kArray),                                // NOLINT
                   arr_(std::make_unique<Array>(std::move(a))) {}
  Value(Object o) : type_(Type::kObject),                              // NOLINT
                    obj_(std::make_unique<Object>(std::move(o))) {}

  Value(const Value& other) { copy_from(other); }
  Value& operator=(const Value& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;
  ~Value() = default;

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool() const {
    TSU_ASSERT(is_bool());
    return bool_;
  }
  double as_double() const {
    TSU_ASSERT(is_number());
    return num_;
  }
  // Integer view of a number; asserts the value is integral and in range.
  // Parsers of outside input use int_in instead.
  std::int64_t as_int() const;
  // Checked integer view: a non-number or a fraction is a kParseError, an
  // integer outside [lo, hi] a kOutOfRange; `name` labels the message.
  Result<std::int64_t> int_in(std::string_view name, std::int64_t lo,
                              std::int64_t hi) const;
  const std::string& as_string() const {
    TSU_ASSERT(is_string());
    return str_;
  }
  const Array& as_array() const {
    TSU_ASSERT(is_array());
    return *arr_;
  }
  Array& as_array() {
    TSU_ASSERT(is_array());
    return *arr_;
  }
  const Object& as_object() const {
    TSU_ASSERT(is_object());
    return *obj_;
  }
  Object& as_object() {
    TSU_ASSERT(is_object());
    return *obj_;
  }

  bool operator==(const Value& other) const;

 private:
  void copy_from(const Value& other);

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::unique_ptr<Array> arr_;
  std::unique_ptr<Object> obj_;
};

struct ParseOptions {
  std::size_t max_depth = 64;
  std::size_t max_bytes = 16u << 20;  // 16 MiB
};

// Parses exactly one JSON document; trailing non-whitespace is an error.
Result<Value> parse(std::string_view text, const ParseOptions& options = {});

struct WriteOptions {
  // 0 = compact; otherwise pretty-print with this indent width.
  int indent = 0;
};

std::string write(const Value& value, const WriteOptions& options = {});

}  // namespace tsu::json
