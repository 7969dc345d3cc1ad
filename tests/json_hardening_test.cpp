#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "rim/io/json.hpp"

// Hardening tests for io::Json::parse against untrusted input — the parser
// now sits on the svc wire path, so hostile bytes must always produce a
// clean parse error: no UB, no stack overflow, no smuggled non-finite
// numbers. Happy-path parsing is covered in io_test.cpp.

namespace rim::io {
namespace {

bool parses(const std::string& text, std::string* error_out = nullptr) {
  Json out;
  std::string error;
  const bool ok = Json::parse(text, out, error);
  if (error_out != nullptr) *error_out = error;
  return ok;
}

std::string nested(std::size_t depth, char open, char close) {
  std::string text(depth, open);
  text += "1";
  text.append(depth, close);
  return text;
}

TEST(JsonHardening, DepthLimitIsDocumentedAndEnforced) {
  // Exactly at the limit parses; one past it is an error, not a crash.
  EXPECT_TRUE(parses(nested(Json::kMaxParseDepth, '[', ']')));
  std::string error;
  EXPECT_FALSE(parses(nested(Json::kMaxParseDepth + 1, '[', ']'), &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(JsonHardening, DeepHostileNestingIsRejectedNotFatal) {
  // A buffer of '[' with no closers: depth-limited long before the stack
  // is at risk, even at a megabyte of nesting.
  EXPECT_FALSE(parses(std::string(1u << 20, '[')));
  EXPECT_FALSE(parses(std::string(1u << 20, '{')));
  // Mixed nesting counts against the same limit.
  std::string mixed;
  for (std::size_t i = 0; i < Json::kMaxParseDepth; ++i) {
    mixed += (i % 2 == 0) ? "[" : "{\"k\":";
  }
  mixed += "1";
  EXPECT_FALSE(parses(mixed + "]"));  // unbalanced anyway
}

TEST(JsonHardening, DepthLimitAppliesInsideObjects) {
  std::string text;
  for (std::size_t i = 0; i < Json::kMaxParseDepth + 1; ++i) {
    text += "{\"k\":";
  }
  text += "1";
  text.append(Json::kMaxParseDepth + 1, '}');
  std::string error;
  EXPECT_FALSE(parses(text, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(JsonHardening, LongStringsParse) {
  std::string body(1u << 20, 'a');
  for (std::size_t i = 0; i < body.size(); i += 97) {
    body[i] = static_cast<char>('A' + i % 26);
  }
  const std::string text = "\"" + body + "\"";
  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse(text, out, error)) << error;
  ASSERT_NE(out.as_string(), nullptr);
  EXPECT_EQ(*out.as_string(), body);
  EXPECT_EQ(out.dump(), text);
}

TEST(JsonHardening, EscapeHandling) {
  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse(R"("a\"b\\c\/d\b\f\n\r\t")", out, error)) << error;
  ASSERT_NE(out.as_string(), nullptr);
  EXPECT_EQ(*out.as_string(), "a\"b\\c/d\b\f\n\r\t");

  ASSERT_TRUE(Json::parse(R"("Aé€")", out, error)) << error;
  ASSERT_NE(out.as_string(), nullptr);
  EXPECT_EQ(*out.as_string(), "A\xC3\xA9\xE2\x82\xAC");

  EXPECT_FALSE(parses(R"("\q")"));
  EXPECT_FALSE(parses(R"("\u00g0")"));
  EXPECT_FALSE(parses(R"("\u12)"));
  EXPECT_FALSE(parses("\"raw\ncontrol\""));

  // Escapes at the start, in the middle, and at the end of a plain run,
  // and back to back, decode the same as one character at a time.
  const std::pair<const char*, std::string> cases[] = {
      {R"("\nabc")", "\nabc"},
      {R"("ab\tcd")", "ab\tcd"},
      {R"("abc\\")", "abc\\"},
      {R"("\"\u0041\/")", "\"A/"},
      {R"("x\u00e9y\"")", "x\xC3\xA9y\""},
      {R"("")", ""},
  };
  for (const auto& [text, expected] : cases) {
    ASSERT_TRUE(Json::parse(text, out, error)) << text << ": " << error;
    ASSERT_NE(out.as_string(), nullptr) << text;
    EXPECT_EQ(*out.as_string(), expected) << text;
    Json again;
    ASSERT_TRUE(Json::parse(out.dump(), again, error)) << error;
    EXPECT_EQ(*again.as_string(), expected) << text;
  }
}

TEST(JsonHardening, EscapedStringsRoundTripThroughDump) {
  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse(R"("tab\there\nand \"quotes\"")", out, error));
  Json again;
  ASSERT_TRUE(Json::parse(out.dump(), again, error)) << error;
  ASSERT_NE(again.as_string(), nullptr);
  EXPECT_EQ(*again.as_string(), *out.as_string());
}

TEST(JsonHardening, NumberOverflowIsAParseError) {
  std::string error;
  EXPECT_FALSE(parses("1e999", &error));
  EXPECT_NE(error.find("overflows"), std::string::npos) << error;
  EXPECT_FALSE(parses("-1e999"));
  EXPECT_FALSE(parses("[1,2,1e999]"));
  EXPECT_FALSE(parses(R"({"x":1e999})"));
  // A huge digit string overflows too (strtod saturates to inf).
  EXPECT_FALSE(parses(std::string(400, '9')));
}

TEST(JsonHardening, NumberUnderflowAndExtremesAreAccepted) {
  Json out;
  std::string error;
  // Gradual underflow collapses toward zero — finite, so acceptable.
  ASSERT_TRUE(Json::parse("1e-999", out, error)) << error;
  EXPECT_EQ(out.as_number(1.0), 0.0);
  ASSERT_TRUE(Json::parse("1.7976931348623157e308", out, error)) << error;
  EXPECT_TRUE(out.is_number());
  ASSERT_TRUE(Json::parse("-1.7976931348623157e308", out, error)) << error;
  EXPECT_TRUE(out.is_number());
}

TEST(JsonHardening, NonFiniteLiteralsNeverParse) {
  // JSON has no Inf/NaN spellings; make sure none sneak through strtod,
  // which would otherwise happily accept "inf"/"nan".
  EXPECT_FALSE(parses("inf"));
  EXPECT_FALSE(parses("Infinity"));
  EXPECT_FALSE(parses("nan"));
  EXPECT_FALSE(parses("-inf"));
  EXPECT_FALSE(parses("NaN"));
}

TEST(JsonHardening, TruncatedDocumentsFailCleanly) {
  const std::string document =
      R"({"a":[1,2.5,true,null,"sA"],"b":{"c":"d"}})";
  Json out;
  std::string error;
  ASSERT_TRUE(Json::parse(document, out, error)) << error;
  // Every proper prefix must fail with an error, never crash or accept.
  for (std::size_t cut = 0; cut < document.size(); ++cut) {
    EXPECT_FALSE(parses(document.substr(0, cut)))
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(JsonHardening, TrailingGarbageIsRejected) {
  EXPECT_FALSE(parses("{} {}"));
  EXPECT_FALSE(parses("1 2"));
  EXPECT_FALSE(parses("null x"));
  EXPECT_FALSE(parses("[1],"));
}

TEST(JsonHardening, MalformedStructuresAreRejected) {
  EXPECT_FALSE(parses(""));
  EXPECT_FALSE(parses("   "));
  EXPECT_FALSE(parses("[1,]"));
  EXPECT_FALSE(parses("{\"a\"}"));
  EXPECT_FALSE(parses("{\"a\":}"));
  EXPECT_FALSE(parses("{a:1}"));
  EXPECT_FALSE(parses("[1 2]"));
  EXPECT_FALSE(parses("+1"));
  EXPECT_FALSE(parses(".5"));
  EXPECT_FALSE(parses("-"));
  EXPECT_FALSE(parses("01x"));
  EXPECT_FALSE(parses("tru"));
  EXPECT_FALSE(parses("\x00\x01\x02"));
}

TEST(JsonHardening, ErrorsCarryAnOffset) {
  std::string error;
  EXPECT_FALSE(parses("[1,2,oops]", &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;

  // The offset is one past the control character, wherever it sits in a
  // plain run.
  EXPECT_FALSE(parses("\"\x01\"", &error));
  EXPECT_EQ(error,
            "JSON parse error at offset 2: unescaped control character in "
            "string");
  EXPECT_FALSE(parses("\"ab\x1f" "c\"", &error));
  EXPECT_EQ(error,
            "JSON parse error at offset 4: unescaped control character in "
            "string");
  EXPECT_FALSE(parses("{\"k\":\"\\n\tx\"}", &error));
  EXPECT_EQ(error,
            "JSON parse error at offset 9: unescaped control character in "
            "string");
  EXPECT_FALSE(parses("\"abc", &error));
  EXPECT_EQ(error, "JSON parse error at offset 4: unterminated string");
}

TEST(JsonHardening, DumpBytesArePinned) {
  JsonObject object;
  object["plain"] = Json("abc+/=XYZ");
  object["escaped"] = Json("\"q\"\\\n\r\t\x01 end");
  object["tab\tkey"] = Json("");
  EXPECT_EQ(Json(std::move(object)).dump(),
            R"({"escaped":"\"q\"\\\n\r\t\u0001 end","plain":"abc+/=XYZ",)"
            R"("tab\tkey":""})");
  EXPECT_EQ(json_escape("no escapes"), "no escapes");
  EXPECT_EQ(json_escape("x\x1fy\""), "x\\u001fy\\\"");

  JsonArray values;
  for (const double d :
       {0.0, -0.0, 1.0, -7.0, 999999999999999.0, 1e15, -1e15, 0.1, 1.5,
        -2.25e-300, 123456789012.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 9007199254740993.0,
        1.8446744073709552e19}) {
    values.emplace_back(d);
  }
  values.emplace_back(true);
  values.emplace_back(nullptr);
  values.emplace_back(JsonArray{});
  values.emplace_back(JsonObject{});
  EXPECT_EQ(Json(std::move(values)).dump(),
            "[0,0,1,-7,999999999999999,1000000000000000,-1000000000000000,"
            "0.10000000000000001,1.5,-2.25e-300,123456789012.5,null,null,"
            "9007199254740992,1.8446744073709552e+19,true,null,[],{}]");
}

}  // namespace
}  // namespace rim::io
