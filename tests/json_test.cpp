// Tests for the JSON writer.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "common/json.h"

namespace hetsim {
namespace {

using common::JsonWriter;

TEST(Json, FlatObject) {
  JsonWriter w;
  w.begin_object()
      .field("a", 1)
      .field("b", "two")
      .field("c", 2.5)
      .field("d", true)
      .end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"two","c":2.5,"d":true})");
}

TEST(Json, NestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("obj").begin_object().field("x", 0).end_object();
  w.key("none").null();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[1,2],"obj":{"x":0},"none":null})");
}

TEST(Json, EmptyContainers) {
  JsonWriter w;
  w.begin_object()
      .key("a")
      .begin_array()
      .end_array()
      .key("o")
      .begin_object()
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(), R"({"a":[],"o":{}})");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(common::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(common::json_escape(std::string_view("\x01", 1)), "\\u0001");
  JsonWriter w;
  w.begin_array().value("quo\"te").end_array();
  EXPECT_EQ(w.str(), "[\"quo\\\"te\"]");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::numeric_limits<double>::infinity()).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(Json, UnbalancedContainersThrow) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW((void)w.str(), common::ConfigError);
  JsonWriter v;
  EXPECT_THROW(v.end_object(), common::ConfigError);
}

}  // namespace
}  // namespace hetsim
