#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace tagspin::obs {
namespace {

/// The text one value prints as, without the document's newline.
template <class T>
std::string text(const T& v) {
  std::string out = JsonWriter().value(v).str();
  out.pop_back();
  return out;
}

TEST(JsonEscape, EscapesBackslashNewlineTabAndControlBytes) {
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("line\nnext"), "line\\nnext");
  EXPECT_EQ(jsonEscape("col\tcol"), "col\\tcol");
  EXPECT_EQ(jsonEscape(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(jsonEscape("plain"), "plain");
}

TEST(JsonWriter, EscapesStringsAndKeys) {
  JsonWriter w;
  w.beginObject().field("say \"hi\"", "tab\there\\").end();
  EXPECT_EQ(w.str(), "{\n  \"say \\\"hi\\\"\": \"tab\\there\\\\\"\n}\n");
}

TEST(JsonWriter, DoublesPrintShortestAndRoundTrip) {
  EXPECT_EQ(text(0.1), "0.1");
  EXPECT_EQ(text(512.0), "512");
  EXPECT_EQ(text(-2.5), "-2.5");
  EXPECT_EQ(text(1e-14), "1e-14");
  for (const double v :
       {1.0 / 3.0, 17285.233712345678, 9.947598300641403e-14,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(), -0.0, 123456789.0}) {
    const std::string t = text(v);
    const double back = std::strtod(t.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << t;
  }
}

TEST(JsonWriter, NonFiniteDoublesPrintNull) {
  EXPECT_EQ(text(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(text(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(text(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, IntegersAndBoolsPrintExactly) {
  EXPECT_EQ(text(std::numeric_limits<uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(text(std::numeric_limits<int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(text(size_t{0}), "0");
  EXPECT_EQ(text(true), "true");
  EXPECT_EQ(text(false), "false");
  EXPECT_EQ(JsonWriter().null().str(), "null\n");
}

TEST(JsonWriter, NestingBreaksOnlyTheOuterLevels) {
  // Root members one per line; a depth-1 container breaks only when it
  // holds a container; everything deeper stays inline.
  JsonWriter w;
  w.beginObject().field("n", 1);
  w.key("flat").beginObject().field("a", 1).field("b", "x").end();
  w.key("rows").beginArray();
  w.beginObject().field("id", 7).key("tags").beginArray().value(1).value(2);
  w.end().end();
  w.beginArray().end();
  w.end();
  w.key("empty").beginObject().end();
  w.end();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"n\": 1,\n"
            "  \"flat\": {\"a\": 1, \"b\": \"x\"},\n"
            "  \"rows\": [\n"
            "    {\"id\": 7, \"tags\": [1, 2]},\n"
            "    []\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(JsonWriter, RawEmbedsAWrittenValueReindented) {
  JsonWriter inner;
  inner.beginObject().field("k", 2).key("v").beginArray().value(3).end();
  const std::string payload = inner.end().str();
  ASSERT_EQ(payload, "{\n  \"k\": 2,\n  \"v\": [3]\n}\n");

  JsonWriter w;
  w.beginObject().field("bench", "b").key("payload").raw(payload);
  w.key("scalar").raw("42").end();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"bench\": \"b\",\n"
            "  \"payload\": {\n"
            "    \"k\": 2,\n"
            "    \"v\": [3]\n"
            "  },\n"
            "  \"scalar\": 42\n"
            "}\n");
}

}  // namespace
}  // namespace tagspin::obs
