#include <gtest/gtest.h>

#include <string>

#include "tsu/json/json.hpp"

namespace tsu::json {
namespace {

Value must_parse(std::string_view text) {
  Result<Value> result = parse(text);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().to_string())
                           << " input: " << text;
  return result.ok() ? std::move(result).value() : Value();
}

void must_fail(std::string_view text) {
  const Result<Value> result = parse(text);
  EXPECT_FALSE(result.ok()) << "should have rejected: " << text;
}

// ---------------------------------------------------------------- scalars --

TEST(JsonParse, Null) { EXPECT_TRUE(must_parse("null").is_null()); }

TEST(JsonParse, Booleans) {
  EXPECT_TRUE(must_parse("true").as_bool());
  EXPECT_FALSE(must_parse("false").as_bool());
}

TEST(JsonParse, Integers) {
  EXPECT_EQ(must_parse("0").as_int(), 0);
  EXPECT_EQ(must_parse("42").as_int(), 42);
  EXPECT_EQ(must_parse("-7").as_int(), -7);
}

TEST(JsonParse, Doubles) {
  EXPECT_DOUBLE_EQ(must_parse("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(must_parse("-0.25").as_double(), -0.25);
  EXPECT_DOUBLE_EQ(must_parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(must_parse("2.5E-2").as_double(), 0.025);
}

TEST(JsonParse, LeadingZeroRules) {
  must_fail("01");
  must_fail("-01");
  EXPECT_DOUBLE_EQ(must_parse("0.5").as_double(), 0.5);
}

TEST(JsonParse, NumberJunk) {
  must_fail("+1");
  must_fail("1.");
  must_fail(".5");
  must_fail("1e");
  must_fail("1e+");
  must_fail("--1");
  must_fail("0x10");
}

TEST(JsonParse, Strings) {
  EXPECT_EQ(must_parse(R"("hello")").as_string(), "hello");
  EXPECT_EQ(must_parse(R"("")").as_string(), "");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(must_parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(must_parse(R"("a\\b")").as_string(), "a\\b");
  EXPECT_EQ(must_parse(R"("a\/b")").as_string(), "a/b");
  EXPECT_EQ(must_parse(R"("a\nb\tc\rd\fe\bf")").as_string(),
            "a\nb\tc\rd\fe\bf");
}

TEST(JsonParse, UnicodeEscapesBmp) {
  EXPECT_EQ(must_parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(must_parse(R"("\u00e9")").as_string(), "\xc3\xa9");      // e-acute
  EXPECT_EQ(must_parse(R"("\u20ac")").as_string(), "\xe2\x82\xac");  // euro sign
}

TEST(JsonParse, UnicodeSurrogatePair) {
  // U+1F600 encoded as \ud83d\ude00.
  EXPECT_EQ(must_parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, Utf8PassThrough) {
  // Raw UTF-8 in the input survives unmodified.
  EXPECT_EQ(must_parse("\"\xc3\xa9\"").as_string(), "\xc3\xa9");
}

TEST(JsonParse, BadUnicodeEscapes) {
  must_fail(R"("\u12")");      // too short
  must_fail(R"("\ug000")");    // bad hex
  must_fail(R"("\ud83d")");    // unpaired high surrogate
  must_fail(R"("\ud83dx")");   // high surrogate then junk
  must_fail(R"("\ude00")");    // unpaired low surrogate
}

TEST(JsonParse, RawControlCharacterRejected) {
  must_fail("\"a\nb\"");
}

TEST(JsonParse, UnterminatedString) {
  must_fail(R"("abc)");
  must_fail(R"("abc\)");
}

// ------------------------------------------------------------- containers --

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(must_parse("[]").as_array().empty());
  EXPECT_TRUE(must_parse("{}").as_object().empty());
}

TEST(JsonParse, ArrayValues) {
  const Value v = must_parse(R"([1, "two", null, true, [3]])");
  const Array& a = v.as_array();
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a[0].as_int(), 1);
  EXPECT_EQ(a[1].as_string(), "two");
  EXPECT_TRUE(a[2].is_null());
  EXPECT_TRUE(a[3].as_bool());
  EXPECT_EQ(a[4].as_array()[0].as_int(), 3);
}

TEST(JsonParse, ObjectPreservesInsertionOrder) {
  const Value v = must_parse(R"({"z": 1, "a": 2, "m": 3})");
  std::vector<std::string> keys;
  for (const auto& [k, _] : v.as_object()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonParse, DuplicateKeysKeepLast) {
  const Value v = must_parse(R"({"k": 1, "k": 2})");
  EXPECT_EQ(v.as_object().size(), 1u);
  EXPECT_EQ(v.as_object().find("k")->as_int(), 2);
}

TEST(JsonParse, NestedStructure) {
  const Value v = must_parse(
      R"({"oldpath":[1,2,3],"newpath":[1,7,3],"wp":3,"interval":50})");
  const Object& o = v.as_object();
  EXPECT_EQ(o.find("oldpath")->as_array().size(), 3u);
  EXPECT_EQ(o.find("wp")->as_int(), 3);
  EXPECT_EQ(o.find("interval")->as_int(), 50);
  EXPECT_EQ(o.find("missing"), nullptr);
}

TEST(JsonParse, ContainerJunk) {
  must_fail("[1,]");
  must_fail("[,1]");
  must_fail("[1 2]");
  must_fail("{\"a\":}");
  must_fail("{\"a\" 1}");
  must_fail("{a: 1}");
  must_fail("{1: 2}");
  must_fail("[");
  must_fail("{");
  must_fail("}");
}

TEST(JsonParse, TrailingContentRejected) {
  must_fail("1 2");
  must_fail("{} []");
  must_fail("null x");
}

TEST(JsonParse, WhitespaceTolerated) {
  const Value v = must_parse(" \t\n { \"a\" : [ 1 , 2 ] } \r\n ");
  EXPECT_EQ(v.as_object().find("a")->as_array().size(), 2u);
}

TEST(JsonParse, DepthLimitEnforced) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += "]";
  ParseOptions options;
  options.max_depth = 10;
  EXPECT_FALSE(parse(deep, options).ok());
  options.max_depth = 200;
  EXPECT_TRUE(parse(deep, options).ok());
}

TEST(JsonParse, SizeLimitEnforced) {
  ParseOptions options;
  options.max_bytes = 4;
  EXPECT_FALSE(parse("[1,2,3]", options).ok());
}

TEST(JsonParse, EmptyInputRejected) {
  must_fail("");
  must_fail("   ");
}

// ----------------------------------------------------------------- writer --

TEST(JsonWrite, CompactRoundTrip) {
  const std::string text =
      R"({"oldpath":[1,2,3],"wp":3,"name":"fw \"main\"","ratio":0.5,)"
      R"("on":true,"off":false,"none":null})";
  const Value v = must_parse(text);
  const std::string rendered = write(v);
  const Value reparsed = must_parse(rendered);
  EXPECT_TRUE(v == reparsed) << rendered;
}

TEST(JsonWrite, IntegersRenderWithoutExponent) {
  EXPECT_EQ(write(Value(static_cast<std::int64_t>(1234567))), "1234567");
  EXPECT_EQ(write(Value(-3)), "-3");
}

TEST(JsonWrite, EscapesControlCharacters) {
  EXPECT_EQ(write(Value(std::string("a\x01""b"))), "\"a\\u0001b\"");
  EXPECT_EQ(write(Value(std::string("tab\t"))), R"("tab\t")");
}

TEST(JsonWrite, PrettyPrinting) {
  Object o;
  o.set("a", Value(1));
  Array arr;
  arr.emplace_back(2);
  o.set("b", Value(std::move(arr)));
  WriteOptions options;
  options.indent = 2;
  const std::string text = write(Value(std::move(o)), options);
  EXPECT_NE(text.find("\n  \"a\": 1"), std::string::npos) << text;
  const Value reparsed = must_parse(text);
  EXPECT_EQ(reparsed.as_object().find("a")->as_int(), 1);
}

TEST(JsonWrite, EmptyContainersCompact) {
  EXPECT_EQ(write(Value(Array{})), "[]");
  EXPECT_EQ(write(Value(Object{})), "{}");
}

// ----------------------------------------------------------------- value --

TEST(JsonValue, EqualityIsStructural) {
  const Value a = must_parse(R"({"x":[1,2],"y":"s"})");
  const Value b = must_parse(R"({"y":"s","x":[1,2]})");  // key order differs
  EXPECT_TRUE(a == b);
  const Value c = must_parse(R"({"x":[1,3],"y":"s"})");
  EXPECT_FALSE(a == c);
}

TEST(JsonValue, CopyIsDeep) {
  Value a = must_parse(R"({"x":[1]})");
  Value b = a;
  b.as_object().find("x")->as_array().push_back(Value(2));
  EXPECT_EQ(a.as_object().find("x")->as_array().size(), 1u);
  EXPECT_EQ(b.as_object().find("x")->as_array().size(), 2u);
}

TEST(JsonValue, AsIntGuardsIntegrality) {
  EXPECT_EQ(must_parse("7").as_int(), 7);
  EXPECT_DEATH(must_parse("7.5").as_int(), "integral");
}

TEST(JsonValue, IntInReturnsErrorsInsteadOfAsserting) {
  EXPECT_EQ(must_parse("7").int_in("n", 0, 7).value(), 7);
  EXPECT_EQ(must_parse("-3").int_in("n", -3, 0).value(), -3);
  EXPECT_EQ(must_parse("9007199254740992").int_in("n", 0, kMaxExactInt)
                .value(),
            kMaxExactInt);
  const struct {
    const char* text;
    Errc code;
  } cases[] = {
      {"7.5", Errc::kParseError},   {"\"7\"", Errc::kParseError},
      {"null", Errc::kParseError},  {"8", Errc::kOutOfRange},
      {"-1", Errc::kOutOfRange},    {"1e300", Errc::kOutOfRange},
      {"-1e300", Errc::kOutOfRange},
  };
  for (const auto& c : cases) {
    const Result<std::int64_t> n = must_parse(c.text).int_in("n", 0, 7);
    ASSERT_FALSE(n.ok()) << c.text;
    EXPECT_EQ(n.error().code, c.code) << c.text;
    EXPECT_EQ(n.error().message, "'n' must be an integer in [0, 7]");
  }
}

TEST(JsonValue, ObjectSetOverwrites) {
  Object o;
  o.set("k", Value(1));
  o.set("k", Value(2));
  EXPECT_EQ(o.size(), 1u);
  EXPECT_EQ(o.find("k")->as_int(), 2);
}

}  // namespace
}  // namespace tsu::json
