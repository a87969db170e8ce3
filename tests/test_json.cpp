#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "json/json.hpp"

namespace cosmo::json {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNestedStructure) {
  const Value v = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const auto& arr = v.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), 2.0);
  EXPECT_TRUE(arr[2].at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(Json, StringEscapes) {
  const Value v = parse(R"("a\"b\\c\nd\tA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\tA");
}

TEST(Json, LongStringWithEveryEscapeRoundTrips) {
  // Runs of plain characters between escapes of every kind, long enough
  // that the parser's quote and backslash scans are reused across escapes.
  std::string s;
  for (int rep = 0; rep < 50; ++rep) {
    for (int c = 1; c < 128; ++c) {
      s += std::string(static_cast<std::size_t>(rep % 7), 'x');
      s += static_cast<char>(c);
    }
  }
  const std::string text = Value(s).dump();
  EXPECT_EQ(parse(text).as_string(), s);
  EXPECT_EQ(escape(std::string("a\x01\"\\b")), "a\\u0001\\\"\\\\b");
}

TEST(Json, UnicodeEscapeMultibyte) {
  EXPECT_EQ(parse(R"("é")").as_string(), "\xC3\xA9");   // e-acute
  EXPECT_EQ(parse(R"("€")").as_string(), "\xE2\x82\xAC");  // euro sign
}

TEST(Json, RoundTripThroughDump) {
  const std::string src = R"({"arr":[1,2.5,"s"],"flag":false,"nested":{"k":null}})";
  const Value v = parse(src);
  const Value again = parse(v.dump());
  EXPECT_EQ(v, again);
}

TEST(Json, PrettyPrintParsesBack) {
  const Value v = parse(R"({"a":[1,2],"b":{"c":3}})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty), v);
}

TEST(Json, NumberFormattingRoundTrips) {
  for (const double d : {0.1, 1e-20, 123456789.123456, -0.0, 3.0}) {
    const Value v(d);
    EXPECT_DOUBLE_EQ(parse(v.dump()).as_number(), d);
  }
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  // inf/nan have no JSON spelling; a lossless roundtrip's psnr_db is +inf.
  Object inf_row;
  inf_row["psnr_db"] = std::numeric_limits<double>::infinity();
  Object nan_row;
  nan_row["x"] = std::numeric_limits<double>::quiet_NaN();
  for (const Object& row : {inf_row, nan_row}) {
    const std::string text = Value(row).dump();
    Value back;
    ASSERT_NO_THROW(back = parse(text)) << text;
    EXPECT_TRUE(back.as_object().begin()->second.is_null()) << text;
  }
  EXPECT_EQ(Value(inf_row).dump(), R"({"psnr_db":null})");
  EXPECT_EQ(Value(-std::numeric_limits<double>::infinity()).dump(2), "null");
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(parse(""), FormatError);
  EXPECT_THROW(parse("{"), FormatError);
  EXPECT_THROW(parse("[1,]"), FormatError);
  EXPECT_THROW(parse("{\"a\" 1}"), FormatError);
  EXPECT_THROW(parse("tru"), FormatError);
  EXPECT_THROW(parse("\"unterminated"), FormatError);
  EXPECT_THROW(parse("1 2"), FormatError);
  EXPECT_THROW(parse("{1: 2}"), FormatError);
}

// Parse errors name the byte offset where parsing stopped and the reason.
TEST(Json, MalformedInputsReportOffsetAndReason) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "offset 0: unexpected end of input"},
      {"[1,]", "offset 3: expected a value"},
      {"{\"a\" 1}", "offset 5: expected ':'"},
      {"tru", "offset 0: bad literal"},
      {"\"unterminated", "offset 1: unterminated string"},
      {"1 2", "offset 2: trailing characters after JSON value"},
      {"{1: 2}", "offset 1: expected object key string"},
      {"[1 2]", "offset 4: expected ',' or ']' in array"},
      {"{\"a\":1 \"b\"}", "offset 8: expected ',' or '}' in object"},
      {"\"\\u12g4\"", "offset 6: bad hex digit in \\u escape"},
      {"\"\\q\"", "offset 3: bad escape character"},
      {"\"abc\\", "offset 5: unterminated escape"},
      {"\"\\u12\"", "offset 3: bad \\u escape"},
      {"1.2.3", "offset 5: malformed number '1.2.3'"},
      {"{\"a\":1,}", "offset 7: expected object key string"},
  };
  for (const auto& [text, want] : cases) {
    try {
      (void)parse(text);
      ADD_FAILURE() << "no error for " << text;
    } catch (const FormatError& e) {
      EXPECT_EQ(std::string(e.what()), std::string("json parse error at ") + want) << text;
    }
  }
}

TEST(Json, TypeMismatchThrows) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), FormatError);
  EXPECT_THROW(v.as_string(), FormatError);
  EXPECT_THROW(parse("{}").at("missing"), FormatError);
}

TEST(Json, GetWithFallback) {
  const Value v = parse(R"({"x": 5, "s": "str", "b": true})");
  EXPECT_DOUBLE_EQ(v.get("x", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(v.get("y", 7.0), 7.0);
  EXPECT_EQ(v.get("s", std::string("d")), "str");
  EXPECT_EQ(v.get("t", std::string("d")), "d");
  EXPECT_TRUE(v.get("b", false));
  EXPECT_TRUE(v.get("c", true));
  EXPECT_TRUE(v.contains("x"));
  EXPECT_FALSE(v.contains("zzz"));
}

TEST(Json, ParseFile) {
  const std::string path = ::testing::TempDir() + "/cosmo_json_test.json";
  {
    std::ofstream out(path);
    out << R"({"key": [1, 2, 3]})";
  }
  const Value v = parse_file(path);
  EXPECT_EQ(v.at("key").as_array().size(), 3u);
  std::remove(path.c_str());
  EXPECT_THROW(parse_file("/nonexistent/nope.json"), IoError);
}

TEST(Json, BuildProgrammatically) {
  Object obj;
  obj["name"] = Value("run");
  obj["values"] = Value(Array{Value(1.0), Value(2.0)});
  const Value v(obj);
  EXPECT_EQ(v.dump(), R"({"name":"run","values":[1,2]})");
}

}  // namespace
}  // namespace cosmo::json
