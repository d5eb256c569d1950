// Tests for the scamper-style JSON traceroute reader/writer.

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"
#include "tracedata/scamper_json.hpp"

using netbase::IPAddr;
using tracedata::ReplyType;
using tracedata::Traceroute;

TEST(ScamperJson, ParsesBasicTrace) {
  auto t = tracedata::trace_from_json(
      R"({"type":"trace","src":"ams3-nl","dst":"203.0.113.9",)"
      R"("hops":[{"addr":"198.51.100.1","probe_ttl":1,"icmp_type":11},)"
      R"({"addr":"203.0.113.9","probe_ttl":4,"icmp_type":0}]})");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->vp, "ams3-nl");
  EXPECT_EQ(t->dst, IPAddr::must_parse("203.0.113.9"));
  ASSERT_EQ(t->hops.size(), 2u);
  EXPECT_EQ(t->hops[0].reply, ReplyType::time_exceeded);
  EXPECT_EQ(t->hops[0].probe_ttl, 1);
  EXPECT_EQ(t->hops[1].reply, ReplyType::echo_reply);
  EXPECT_TRUE(t->reached_destination());
}

TEST(ScamperJson, IcmpTypeMapping) {
  auto t = tracedata::trace_from_json(
      R"({"dst":"203.0.113.9","hops":[)"
      R"({"addr":"1.1.1.1","probe_ttl":1,"icmp_type":11},)"
      R"({"addr":"2.2.2.2","probe_ttl":2,"icmp_type":3},)"
      R"({"addr":"3.3.3.3","probe_ttl":3,"icmp_type":0}]})");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->hops[0].reply, ReplyType::time_exceeded);
  EXPECT_EQ(t->hops[1].reply, ReplyType::dest_unreachable);
  EXPECT_EQ(t->hops[2].reply, ReplyType::echo_reply);
}

TEST(ScamperJson, Icmp6TypeMapping) {
  // In v6, type 3 is Time Exceeded and 129 Echo Reply.
  auto t = tracedata::trace_from_json(
      R"({"dst":"2001:db8::9","hops":[)"
      R"({"addr":"2001:db8::1","probe_ttl":1,"icmp_type":3},)"
      R"({"addr":"2001:db8::2","probe_ttl":2,"icmp_type":1},)"
      R"({"addr":"2001:db8::9","probe_ttl":3,"icmp_type":129}]})");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->hops[0].reply, ReplyType::time_exceeded);
  EXPECT_EQ(t->hops[1].reply, ReplyType::dest_unreachable);
  EXPECT_EQ(t->hops[2].reply, ReplyType::echo_reply);
}

TEST(ScamperJson, HopsSortedAndDeduplicated) {
  auto t = tracedata::trace_from_json(
      R"({"dst":"9.9.9.9","hops":[)"
      R"({"addr":"3.3.3.3","probe_ttl":3,"icmp_type":11},)"
      R"({"addr":"1.1.1.1","probe_ttl":1,"icmp_type":11},)"
      R"({"addr":"1.1.1.2","probe_ttl":1,"icmp_type":11}]})");
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->hops.size(), 2u);
  EXPECT_EQ(t->hops[0].addr, IPAddr::must_parse("1.1.1.1"));  // first kept
  EXPECT_EQ(t->hops[1].probe_ttl, 3);
}

TEST(ScamperJson, SkipsNonTraceRecords) {
  std::string err;
  EXPECT_FALSE(tracedata::trace_from_json(
                   R"({"type":"cycle-start","id":1})", &err)
                   .has_value());
  EXPECT_TRUE(err.empty());
  EXPECT_FALSE(tracedata::trace_from_json("# comment", &err).has_value());
  EXPECT_TRUE(err.empty());
  EXPECT_FALSE(tracedata::trace_from_json("", &err).has_value());
  EXPECT_TRUE(err.empty());
}

TEST(ScamperJson, ReportsMalformed) {
  std::string err;
  for (const char* bad : {
           "{not json",
           R"({"type":"trace"})",                          // no dst
           R"({"dst":"nonsense"})",                        // bad dst
           R"({"dst":"1.2.3.4","hops":5})",                // hops not array
           R"({"dst":"1.2.3.4","hops":[{"probe_ttl":1}]})",  // hop missing addr
           R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":0}]})",
           R"({"dst":"1.2.3.4"} trailing)",
       }) {
    err.clear();
    EXPECT_FALSE(tracedata::trace_from_json(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(ScamperJson, IgnoresUnknownKeysAndSkipsUnknownIcmp) {
  auto t = tracedata::trace_from_json(
      R"({"type":"trace","dst":"9.9.9.9","userid":0,"stop_reason":"GAPLIMIT",)"
      R"("hops":[{"addr":"1.1.1.1","probe_ttl":1,"icmp_type":11,"rtt":12.3},)"
      R"({"addr":"2.2.2.2","probe_ttl":2,"icmp_type":42}]})");
  ASSERT_TRUE(t.has_value());
  // The unknown icmp_type hop is dropped, the rest survives.
  ASSERT_EQ(t->hops.size(), 1u);
}

TEST(ScamperJson, HandlesEscapesAndNesting) {
  auto t = tracedata::trace_from_json(
      R"({"type":"trace","src":"vpA\n","dst":"9.9.9.9",)"
      R"("meta":{"nested":[1,2,{"x":true}]},"hops":[]})");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->vp, "vpA\n");
  EXPECT_TRUE(t->hops.empty());
}

TEST(ScamperJson, StreamReaderCounts) {
  std::istringstream in(
      R"({"type":"cycle-start"})" "\n"
      R"({"type":"trace","src":"a","dst":"9.9.9.9","hops":[]})" "\n"
      "garbage\n"
      R"({"type":"trace","src":"b","dst":"8.8.8.8","hops":[]})" "\n");
  std::size_t malformed = 0;
  const auto traces = tracedata::read_json_traceroutes(in, &malformed);
  EXPECT_EQ(traces.size(), 2u);
  EXPECT_EQ(malformed, 1u);
}

TEST(ScamperJson, RoundTrip) {
  std::vector<Traceroute> corpus{
      testutil::tr("vp1", "203.0.113.9",
                   {{1, "198.51.100.1", 'T'}, {2, "192.0.2.1", 'U'},
                    {4, "203.0.113.9", 'E'}}),
      testutil::tr("vp6", "2001:db8::9",
                   {{1, "2001:db8::1", 'T'}, {3, "2001:db8::9", 'E'}}),
  };
  std::stringstream buf;
  tracedata::write_json_traceroutes(buf, corpus);
  std::size_t malformed = 0;
  const auto back = tracedata::read_json_traceroutes(buf, &malformed);
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(back, corpus);
}

TEST(ScamperJson, EquivalentToNativeFormat) {
  // The same traceroute parsed from both formats is identical.
  const auto native = tracedata::from_line(
      "T|vp|203.0.113.9|1:198.51.100.1:T;4:203.0.113.9:E");
  const auto json = tracedata::trace_from_json(
      R"({"type":"trace","src":"vp","dst":"203.0.113.9",)"
      R"("hops":[{"addr":"198.51.100.1","probe_ttl":1,"icmp_type":11},)"
      R"({"addr":"203.0.113.9","probe_ttl":4,"icmp_type":0}]})");
  ASSERT_TRUE(native.has_value());
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(*native, *json);
}

TEST(ScamperJson, RejectsDeepNestingWithoutOverflow) {
  // Regression: the parser used to recurse once per
  // nesting level with no bound, so a hostile line of brackets could
  // overflow the stack. Deep nesting must now fail cleanly.
  std::string deep = R"({"type":"trace","dst":"9.9.9.9","x":)";
  deep.append(100000, '[');
  deep.append(100000, ']');
  deep += '}';
  std::string error;
  const auto t = tracedata::trace_from_json(deep, &error);
  EXPECT_FALSE(t.has_value());
  EXPECT_EQ(error, "nesting too deep");

  // Scamper-realistic nesting depths stay accepted.
  const auto ok = tracedata::trace_from_json(
      R"({"type":"trace","dst":"9.9.9.9","meta":[[[[[{"a":[1]}]]]]],"hops":[]})");
  EXPECT_TRUE(ok.has_value());
}

TEST(ScamperJson, HugeIcmpTypeIsSkippedNotUndefined) {
  // Regression: icmp_type was cast to int before any range check, which
  // is undefined behaviour for doubles outside the int range (1e300).
  // Out-of-range types now drop the hop like any unknown reply class.
  const auto t = tracedata::trace_from_json(
      R"({"type":"trace","dst":"9.9.9.9","hops":[)"
      R"({"addr":"1.1.1.1","probe_ttl":1,"icmp_type":1e300},)"
      R"({"addr":"2.2.2.2","probe_ttl":2,"icmp_type":-1e300},)"
      R"({"addr":"3.3.3.3","probe_ttl":3,"icmp_type":11}]})");
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->hops.size(), 1u);
  EXPECT_EQ(t->hops[0].addr, IPAddr::must_parse("3.3.3.3"));
}

// ---------------------------------------------------------------------
// The parser's semantics, one row per rule and one row per error
// string. `want` is the accepted trace's native rendering (to_line),
// "" for a line skipped without an error, or the exact error string.
// ("out of memory" has no row: it needs an allocation failure.)
// ---------------------------------------------------------------------

namespace {

std::string nested(int depth, std::string_view inner) {
  return std::string(static_cast<std::size_t>(depth), '[') + std::string(inner) +
         std::string(static_cast<std::size_t>(depth), ']');
}

std::string in_root(const std::string& value) {
  return R"({"dst":"9.9.9.9","x":)" + value + "}";
}

}  // namespace

TEST(ScamperJson, SemanticsTable) {
  struct Row {
    std::string line;
    std::string want;
  };
  const std::vector<Row> rows = {
      // Blank and comment lines: skipped. Only ' ' is trimmed in front,
      // and '\r', '\n', ' ' behind.
      {"", ""},
      {"   ", ""},
      {"\r", ""},
      {"  # comment", ""},
      {"\t# comment", "invalid number"},
      {"\t{\"dst\":\"1.2.3.4\"}\t\r\n", "T||1.2.3.4|"},

      // Records that are not traces: skipped even when their dst or
      // hops are bad, whatever the key order.
      {R"({"type":"cycle-start","id":1})", ""},
      {R"({"type":"cycle-start","dst":"bogus","hops":5})", ""},
      {R"({"hops":[7,{"probe_ttl":0}],"dst":"x","type":"cycle-stop"})", ""},
      {R"({"type":"trace","dst":"1.2.3.4"})", "T||1.2.3.4|"},
      {R"({"type":5,"dst":"1.2.3.4"})", "T||1.2.3.4|"},  // not a string: a trace
      // ...but a syntax error anywhere makes even those malformed.
      {R"({"type":"cycle-start",})", "expected string"},
      {R"({"type":"cycle-start","x":[1,}]})", "invalid number"},

      // The first of duplicate keys wins, at the root and in a hop.
      {R"({"dst":"1.2.3.4","dst":"bogus"})", "T||1.2.3.4|"},
      {R"({"dst":"bogus","dst":"1.2.3.4"})", "malformed dst address"},
      {R"({"dst":5,"dst":"1.2.3.4"})", "missing dst"},
      {R"({"type":"trace","type":"cycle-start","dst":"1.2.3.4"})", "T||1.2.3.4|"},
      {R"({"type":"cycle-start","type":"trace","dst":"1.2.3.4"})", ""},
      {R"({"src":"a","src":"b","dst":"1.2.3.4"})", "T|a|1.2.3.4|"},
      {R"({"dst":"1.2.3.4","hops":[],"hops":5})", "T||1.2.3.4|"},
      {R"({"dst":"1.2.3.4","hops":5,"hops":[]})", "hops not an array"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","addr":"x","probe_ttl":1}]})",
       "T||1.2.3.4|1:1.1.1.1:T"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":"1","probe_ttl":1}]})",
       "hop missing addr/probe_ttl"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":2,"probe_ttl":0}]})",
       "T||1.2.3.4|2:1.1.1.1:T"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":1,"icmp_type":0,"icmp_type":11}]})",
       "T||1.2.3.4|1:1.1.1.1:E"},
      // Keys compare after escape decoding.
      {R"({"\u0064st":"1.2.3.4","\u0073rc":"v","src":"w"})", "T|v|1.2.3.4|"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","prob\u0065_ttl":3,"probe_ttl":4}]})",
       "T||1.2.3.4|3:1.1.1.1:T"},
      {R"({"d\"st":"1.2.3.4"})", "missing dst"},
      // Values decode their escapes too.
      {R"({"src":"a\/b\"c\\d\te\u00e9\u20AC\u0041","dst":"1.2.3.\u0034"})",
       "T|a/b\"c\\d\te\xC3\xA9\xE2\x82\xAC" "A|1.2.3.4|"},

      // monitor overrides src in either order, when it is a string.
      {R"({"src":"s","monitor":"m","dst":"1.2.3.4"})", "T|m|1.2.3.4|"},
      {R"({"monitor":"m","src":"s","dst":"1.2.3.4"})", "T|m|1.2.3.4|"},
      {R"({"src":"s","monitor":5,"dst":"1.2.3.4"})", "T|s|1.2.3.4|"},
      {R"({"src":7,"dst":"1.2.3.4"})", "T||1.2.3.4|"},

      // Semantic checks run after the whole line parsed: type, then dst,
      // then hops, which report their first error in hop order.
      {R"({"type":"trace"})", "missing dst"},
      {R"({"dst":"nonsense"})", "malformed dst address"},
      {R"({"hops":5,"dst":"nonsense"})", "malformed dst address"},
      {R"({"hops":[{"addr":"x","probe_ttl":1}]})", "missing dst"},
      {R"({"hops":[{"addr":"x","probe_ttl":1}],"dst":"1.2.3.4"})", "malformed hop address"},
      {R"({"dst":"1.2.3.4","hops":{}})", "hops not an array"},
      {R"({"dst":"1.2.3.4","hops":[7]})", "hop not an object"},
      {R"({"dst":"1.2.3.4","hops":[{"probe_ttl":1}]})", "hop missing addr/probe_ttl"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":1,"probe_ttl":1}]})", "hop missing addr/probe_ttl"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":0}]})",
       "probe_ttl out of range"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":0},{"addr":"x","probe_ttl":1}]})",
       "probe_ttl out of range"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"x","probe_ttl":1},{"addr":"1.1.1.1","probe_ttl":0}]})",
       "malformed hop address"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":1,"icmp_type":42},[]]})",
       "hop not an object"},
      {R"({"dst":"1.2.3.4","hops":[7],"x":tru})", "invalid token"},
      {R"({"dst":"nonsense","y":[1 2]})", "expected ',' or ']'"},

      // Numbers: leading zeros are fine; a mantissa digit, and an
      // exponent digit after e/E, are required. Only probe_ttl and
      // icmp_type are converted, with strtod's value.
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":007}]})",
       "T||1.2.3.4|7:1.1.1.1:T"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":.5e1}]})",
       "T||1.2.3.4|5:1.1.1.1:T"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":2.9,"icmp_type":3.99}]})",
       "T||1.2.3.4|2:1.1.1.1:U"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":4E0,"icmp_type":-0}]})",
       "T||1.2.3.4|4:1.1.1.1:E"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":255.5}]})",
       "probe_ttl out of range"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":0.999}]})",
       "probe_ttl out of range"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":1e300}]})",
       "probe_ttl out of range"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":1e999}]})",
       "probe_ttl out of range"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":-1e300}]})",
       "probe_ttl out of range"},
      {R"({"dst":"1.2.3.4","hops":[{"addr":"1.1.1.1","probe_ttl":1,"icmp_type":1e300},)"
       R"({"addr":"2.2.2.2","probe_ttl":2,"icmp_type":-1e300},)"
       R"({"addr":"3.3.3.3","probe_ttl":3,"icmp_type":1e999},)"
       R"({"addr":"4.4.4.4","probe_ttl":4,"icmp_type":255.5},)"
       R"({"addr":"5.5.5.5","probe_ttl":5,"icmp_type":"0"}]})",
       "T||1.2.3.4|5:5.5.5.5:T"},
      {in_root("-"), "invalid number"},
      {in_root("."), "invalid number"},
      {in_root("-.e1"), "invalid number"},
      {in_root("1e"), "invalid number"},
      {in_root("1e+"), "invalid number"},
      {in_root("+1"), "invalid number"},
      {in_root("-0.0e-0"), "T||9.9.9.9|"},
      {in_root("5."), "T||9.9.9.9|"},
      {in_root("0x1"), "expected ',' or '}'"},

      // Every syntax error string.
      {R"({"dst":)", "unexpected end of input"},
      {R"({"dst":"1.2.3.4","x":nul})", "invalid token"},
      {R"({"dst":"1.2.3.4","x":falsy})", "invalid token"},
      {R"({"dst":"1.2.3.4",5:1})", "expected string"},
      {R"({"dst" "1.2.3.4"})", "expected ':'"},
      {R"({"dst":"1.2.3.4" "x":1})", "expected ',' or '}'"},
      {R"({"dst":"1.2.3.4","x":[1 2]})", "expected ',' or ']'"},
      {R"({"dst":"1.2.3.4","x":"\u12G4"})", "bad \\u escape"},
      {R"({"dst":"1.2.3.4","x":"\u12)", "bad \\u escape"},
      {R"({"dst":"1.2.3.4","x":"\x"})", "bad escape"},
      {R"({"dst":"1.2.3.4","x":"abc)", "unterminated string"},
      {R"({"dst":"1.2.3.4","x":"abc\)", "unterminated string"},
      {R"({"dst":"1.2.3.4","x":})", "invalid number"},
      {R"({"dst":"1.2.3.4","x":[1,]})", "invalid number"},
      {R"({"dst":"1.2.3.4"} trailing)", "not a JSON object"},
      {R"({"dst":"1.2.3.4"}})", "not a JSON object"},
      {"[1]", "not a JSON object"},
      {R"("text")", "not a JSON object"},
      {"5", "not a JSON object"},
      {"[1,}", "invalid number"},
      {"{not json", "expected string"},

      // The depth limit: a value inside 64 open containers is rejected;
      // the end-of-input check comes before the depth check.
      {in_root(nested(62, "1")), "T||9.9.9.9|"},
      {in_root(nested(63, "1")), "nesting too deep"},
      {in_root(nested(63, "")), "T||9.9.9.9|"},
      {in_root(nested(64, "")), "nesting too deep"},
      {R"({"dst":"9.9.9.9","x":)" + std::string(63, '['), "unexpected end of input"},
      {R"({"dst":"9.9.9.9","x":)" + std::string(64, '['), "nesting too deep"},
      {R"({"x":)" + nested(3, R"({"y":)" + nested(58, "1") + "}") + R"(,"dst":"9.9.9.9"})",
       "T||9.9.9.9|"},
      {R"({"x":)" + nested(3, R"({"y":)" + nested(59, "1") + "}") + R"(,"dst":"9.9.9.9"})",
       "nesting too deep"},
      {R"({"dst":"9.9.9.9","hops":[{"addr":"1.1.1.1","probe_ttl":1,"x":)" +
           nested(60, "1") + "}]}",
       "T||9.9.9.9|1:1.1.1.1:T"},
      {R"({"dst":"9.9.9.9","hops":[{"addr":"1.1.1.1","probe_ttl":1,"x":)" +
           nested(61, "1") + "}]}",
       "nesting too deep"},

      // Hops: stable-sorted by TTL, the first reply per TTL kept; hops
      // with an unknown ICMP type are dropped before that.
      {R"({"dst":"9.9.9.9","hops":[{"addr":"3.3.3.3","probe_ttl":3},)"
       R"({"addr":"1.1.1.1","probe_ttl":1,"icmp_type":42},)"
       R"({"addr":"1.1.1.2","probe_ttl":1,"icmp_type":3},)"
       R"({"addr":"1.1.1.3","probe_ttl":1},{"addr":"3.3.3.4","probe_ttl":3}]})",
       "T||9.9.9.9|1:1.1.1.2:U;3:3.3.3.3:T"},
      {R"({"dst":"2001:db8::9","hops":[{"addr":"2001:db8::2","probe_ttl":2,"icmp_type":1},)"
       R"({"addr":"2001:db8::1","probe_ttl":1,"icmp_type":3},)"
       R"({"addr":"2001:db8::9","probe_ttl":3,"icmp_type":129},)"
       R"({"addr":"2001:db8::8","probe_ttl":4,"icmp_type":11}]})",
       "T||2001:db8::9|1:2001:db8::1:T;2:2001:db8::2:U;3:2001:db8::9:E"},
  };
  for (const Row& row : rows) {
    std::string error;
    const auto t = tracedata::trace_from_json(row.line, &error);
    const std::string got = t ? tracedata::to_line(*t) : error;
    EXPECT_EQ(got, row.want) << row.line;
    if (t) {
      EXPECT_TRUE(error.empty()) << row.line;
    }
  }
}
