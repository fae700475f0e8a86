#include "tsu/json/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace tsu::json {

// ---------------------------------------------------------------- Object --

Value* Object::find(std::string_view key) {
  for (auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

const Value* Object::find(std::string_view key) const {
  for (const auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

Value& Object::set(std::string key, Value value) {
  if (Value* existing = find(key)) {
    *existing = std::move(value);
    return *existing;
  }
  entries_.emplace_back(std::move(key), std::move(value));
  return entries_.back().second;
}

// ----------------------------------------------------------------- Value --

std::int64_t Value::as_int() const {
  TSU_ASSERT(is_number());
  TSU_ASSERT_MSG(std::nearbyint(num_) == num_, "number is not integral");
  TSU_ASSERT_MSG(num_ >= -static_cast<double>(kMaxExactInt) &&
                     num_ <= static_cast<double>(kMaxExactInt),
                 "number exceeds exact integer range");
  return static_cast<std::int64_t>(num_);
}

Result<std::int64_t> Value::int_in(std::string_view name, std::int64_t lo,
                                   std::int64_t hi) const {
  TSU_ASSERT(-kMaxExactInt <= lo && lo <= hi && hi <= kMaxExactInt);
  const auto fail = [&](Errc code) {
    return make_error(code, std::string("'").append(name).append(
                                "' must be an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]"));
  };
  if (!is_number() || std::nearbyint(num_) != num_)
    return fail(Errc::kParseError);
  if (num_ < static_cast<double>(lo) || num_ > static_cast<double>(hi))
    return fail(Errc::kOutOfRange);
  return static_cast<std::int64_t>(num_);
}

void Value::copy_from(const Value& other) {
  type_ = other.type_;
  bool_ = other.bool_;
  num_ = other.num_;
  str_ = other.str_;
  arr_ = other.arr_ ? std::make_unique<Array>(*other.arr_) : nullptr;
  obj_ = other.obj_ ? std::make_unique<Object>(*other.obj_) : nullptr;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return num_ == other.num_;
    case Type::kString: return str_ == other.str_;
    case Type::kArray: {
      const Array& a = *arr_;
      const Array& b = *other.arr_;
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i)
        if (!(a[i] == b[i])) return false;
      return true;
    }
    case Type::kObject: {
      const Object& a = *obj_;
      const Object& b = *other.obj_;
      if (a.size() != b.size()) return false;
      for (const auto& [k, v] : a) {
        const Value* bv = b.find(k);
        if (bv == nullptr || !(v == *bv)) return false;
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------- Parser --

namespace {

class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  Result<Value> run() {
    skip_ws();
    Result<Value> value = parse_value();
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size())
      return fail("trailing characters after JSON document");
    return value;
  }

 private:
  Error fail(std::string message) const {
    return make_error(Errc::kParseError,
                      message + " at offset " + std::to_string(pos_));
  }

  bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() const noexcept { return text_[pos_]; }
  char take() noexcept { return text_[pos_++]; }

  void skip_ws() noexcept {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        return;
    }
  }

  bool consume(std::string_view word) noexcept {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Result<Value> parse_value() {
    if (depth_ > options_.max_depth) return fail("nesting depth exceeded");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (consume("null")) return Value(nullptr);
        return fail("invalid literal");
      case 't':
        if (consume("true")) return Value(true);
        return fail("invalid literal");
      case 'f':
        if (consume("false")) return Value(false);
        return fail("invalid literal");
      case '"': return parse_string_value();
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("digit expected after decimal point");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("digit expected in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("invalid number");
    if (!std::isfinite(value)) return fail("number out of range");
    return Value(value);
  }

  Result<Value> parse_string_value() {
    Result<std::string> s = parse_string();
    if (!s.ok()) return s.error();
    return Value(std::move(s).value());
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<std::uint32_t> parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) return fail("unterminated \\u escape");
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        return fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  Result<std::string> parse_string() {
    TSU_ASSERT(peek() == '"');
    ++pos_;
    std::string out;
    while (true) {
      if (eof()) return fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return fail("unterminated escape");
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          Result<std::uint32_t> hi = parse_hex4();
          if (!hi.ok()) return hi.error();
          std::uint32_t cp = hi.value();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (!consume("\\u")) return fail("unpaired high surrogate");
            Result<std::uint32_t> lo = parse_hex4();
            if (!lo.ok()) return lo.error();
            if (lo.value() < 0xDC00 || lo.value() > 0xDFFF)
              return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo.value() - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  Result<Value> parse_array() {
    TSU_ASSERT(peek() == '[');
    ++pos_;
    ++depth_;
    Array items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      --depth_;
      return Value(std::move(items));
    }
    while (true) {
      skip_ws();
      Result<Value> item = parse_value();
      if (!item.ok()) return item;
      items.push_back(std::move(item).value());
      skip_ws();
      if (eof()) return fail("unterminated array");
      const char c = take();
      if (c == ']') {
        --depth_;
        return Value(std::move(items));
      }
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  Result<Value> parse_object() {
    TSU_ASSERT(peek() == '{');
    ++pos_;
    ++depth_;
    Object object;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      --depth_;
      return Value(std::move(object));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      Result<std::string> key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (eof() || take() != ':') return fail("expected ':' after object key");
      skip_ws();
      Result<Value> value = parse_value();
      if (!value.ok()) return value;
      object.set(std::move(key).value(), std::move(value).value());
      skip_ws();
      if (eof()) return fail("unterminated object");
      const char c = take();
      if (c == '}') {
        --depth_;
        return Value(std::move(object));
      }
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  ParseOptions options_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Result<Value> parse(std::string_view text, const ParseOptions& options) {
  if (text.size() > options.max_bytes)
    return make_error(Errc::kOutOfRange, "JSON input exceeds max_bytes");
  return Parser(text, options).run();
}

// ---------------------------------------------------------------- Writer --

namespace {

void write_escaped(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_number(double d, std::string& out) {
  if (std::nearbyint(d) == d && std::abs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(d));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void write_value(const Value& value, const WriteOptions& options, int depth,
                 std::string& out) {
  const auto newline_indent = [&](int d) {
    if (options.indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(options.indent * d), ' ');
  };
  switch (value.type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Type::kNumber: write_number(value.as_double(), out); break;
    case Type::kString: write_escaped(value.as_string(), out); break;
    case Type::kArray: {
      const Array& items = value.as_array();
      if (items.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline_indent(depth + 1);
        write_value(items[i], options, depth + 1, out);
      }
      newline_indent(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& object = value.as_object();
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : object) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(depth + 1);
        write_escaped(k, out);
        out.push_back(':');
        if (options.indent > 0) out.push_back(' ');
        write_value(v, options, depth + 1, out);
      }
      newline_indent(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string write(const Value& value, const WriteOptions& options) {
  std::string out;
  write_value(value, options, 0, out);
  return out;
}

}  // namespace tsu::json
