// Unit tests for traceroute records and alias-set files.

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"
#include "tracedata/alias.hpp"
#include "tracedata/scamper_json.hpp"
#include "tracedata/traceroute.hpp"

using netbase::IPAddr;
using tracedata::AliasSets;
using tracedata::ReplyType;
using tracedata::Traceroute;

// ---------------------------------------------------------------------
// Traceroute serialization
// ---------------------------------------------------------------------

TEST(TracerouteFormat, RoundTripsSimple) {
  const Traceroute t = testutil::tr(
      "ams3-nl", "203.0.113.9",
      {{1, "10.0.0.1", 'T'}, {2, "198.51.100.1", 'T'}, {4, "203.0.113.9", 'E'}});
  const std::string line = tracedata::to_line(t);
  EXPECT_EQ(line, "T|ams3-nl|203.0.113.9|1:10.0.0.1:T;2:198.51.100.1:T;4:203.0.113.9:E");
  const auto back = tracedata::from_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(TracerouteFormat, RoundTripsV6Hops) {
  const Traceroute t = testutil::tr("vp6", "2001:db8::9",
                                    {{1, "2001:db8::1", 'T'}, {3, "2001:db8::9", 'E'}});
  const auto back = tracedata::from_line(tracedata::to_line(t));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(TracerouteFormat, RoundTripsAllReplyTypes) {
  const Traceroute t = testutil::tr(
      "vp", "8.8.8.8", {{1, "1.1.1.1", 'T'}, {2, "2.2.2.2", 'U'}, {3, "8.8.8.8", 'E'}});
  const auto back = tracedata::from_line(tracedata::to_line(t));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->hops[1].reply, ReplyType::dest_unreachable);
}

TEST(TracerouteFormat, EmptyHopsAllowed) {
  Traceroute t;
  t.vp = "vp";
  t.dst = IPAddr::must_parse("1.2.3.4");
  const auto back = tracedata::from_line(tracedata::to_line(t));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->hops.empty());
}

TEST(TracerouteFormat, RejectsMalformed) {
  for (const char* bad : {
           "",                                   // empty
           "# comment",                          // comment
           "X|vp|1.2.3.4|1:1.1.1.1:T",           // wrong tag
           "T|vp|notanip|1:1.1.1.1:T",           // bad dst
           "T|vp|1.2.3.4|0:1.1.1.1:T",           // ttl 0
           "T|vp|1.2.3.4|1:1.1.1.1:Z",           // bad type
           "T|vp|1.2.3.4|1:1.1.1.1:T;1:2.2.2.2:T",  // non-increasing ttl
           "T|vp|1.2.3.4|1:1.1.1.1:TT",          // trailing junk
           "T|vp",                               // missing fields
       }) {
    EXPECT_FALSE(tracedata::from_line(bad).has_value()) << bad;
  }
}

TEST(TracerouteFormat, ReachedDestination) {
  const auto t = testutil::tr("vp", "9.9.9.9", {{1, "1.1.1.1", 'T'}, {2, "9.9.9.9", 'E'}});
  EXPECT_TRUE(t.reached_destination());
  const auto t2 = testutil::tr("vp", "9.9.9.9", {{1, "1.1.1.1", 'T'}});
  EXPECT_FALSE(t2.reached_destination());
}

TEST(TracerouteFormat, CorpusRoundTrip) {
  std::vector<Traceroute> corpus{
      testutil::tr("a", "1.1.1.1", {{1, "2.2.2.2", 'T'}}),
      testutil::tr("b", "3.3.3.3", {{2, "4.4.4.4", 'U'}}),
  };
  std::stringstream buf;
  tracedata::write_traceroutes(buf, corpus);
  std::size_t malformed = 99;
  const auto back = tracedata::read_traceroutes(buf, &malformed);
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(back, corpus);
}

TEST(TracerouteFormat, ReadSkipsAndCountsBadLines) {
  std::istringstream in("# header\nT|a|1.1.1.1|1:2.2.2.2:T\ngarbage\n");
  std::size_t malformed = 0;
  const auto back = tracedata::read_traceroutes(in, &malformed);
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(malformed, 1u);
}

TEST(TracerouteFormat, ReadSkipsCrlfBlankLines) {
  std::istringstream in(
      "# header\r\n\r\nT|a|1.1.1.1|1:2.2.2.2:T\r\n\r\nT|b|3.3.3.3|\r\n");
  std::size_t malformed = 99;
  const auto back = tracedata::read_traceroutes(in, &malformed);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(malformed, 0u);
}

// ---------------------------------------------------------------------
// Corpus format detection
// ---------------------------------------------------------------------

TEST(CorpusFormat, FirstContentLineDecides) {
  const std::string json = R"({"type":"trace","src":"a","dst":"1.1.1.1","hops":[]})";
  for (const std::string& text : {
           json + "\n",
           "\r\n" + json + "\r\n",
           "\t\n" + json + "\n",
           " \t\r\n\n# comment\n  \t# indented comment\r\n\t " + json + "\n",
       }) {
    std::istringstream in(text);
    EXPECT_TRUE(tracedata::is_json_corpus(in)) << text;
    // The stream is rewound: the whole corpus is still there to read.
    std::size_t malformed = 0;
    EXPECT_EQ(tracedata::read_json_traceroutes(in, &malformed).size(), 1u) << text;
  }
  for (const std::string text : {
           "", "\n\r\n", "# {\n", "\r\nT|a|1.1.1.1|\n", "# header\nT|a|1.1.1.1|\n",
           "\t[1]\n{}\n",
       }) {
    std::istringstream in(text);
    EXPECT_FALSE(tracedata::is_json_corpus(in)) << text;
  }
}

TEST(CorpusFormat, RewindsToWhereTheStreamWas) {
  std::istringstream in("T|a|1.1.1.1|\n{}\n");
  std::string first;
  std::getline(in, first);
  EXPECT_TRUE(tracedata::is_json_corpus(in));
  std::string next;
  std::getline(in, next);
  EXPECT_EQ(next, "{}");
}

// ---------------------------------------------------------------------
// Alias sets
// ---------------------------------------------------------------------

namespace {
std::vector<IPAddr> addrs(std::initializer_list<const char*> list) {
  std::vector<IPAddr> out;
  for (const char* s : list) out.push_back(IPAddr::must_parse(s));
  return out;
}
}  // namespace

TEST(AliasSets, AddAndFind) {
  AliasSets sets;
  const auto id = sets.add(addrs({"1.1.1.1", "2.2.2.2"}));
  ASSERT_NE(id, AliasSets::npos);
  EXPECT_EQ(sets.find(IPAddr::must_parse("1.1.1.1")), id);
  EXPECT_EQ(sets.find(IPAddr::must_parse("2.2.2.2")), id);
  EXPECT_EQ(sets.find(IPAddr::must_parse("3.3.3.3")), AliasSets::npos);
}

TEST(AliasSets, SingletonsDropped) {
  AliasSets sets;
  EXPECT_EQ(sets.add(addrs({"1.1.1.1"})), AliasSets::npos);
  EXPECT_EQ(sets.add({}), AliasSets::npos);
  EXPECT_TRUE(sets.empty());
}

TEST(AliasSets, FirstGroupingWins) {
  AliasSets sets;
  sets.add(addrs({"1.1.1.1", "2.2.2.2"}));
  const auto id2 = sets.add(addrs({"2.2.2.2", "3.3.3.3", "4.4.4.4"}));
  ASSERT_NE(id2, AliasSets::npos);
  EXPECT_EQ(sets.find(IPAddr::must_parse("2.2.2.2")), 0u);
  EXPECT_EQ(sets.find(IPAddr::must_parse("3.3.3.3")), id2);
}

TEST(AliasSets, DuplicatesWithinSetRemoved) {
  AliasSets sets;
  const auto id = sets.add(addrs({"1.1.1.1", "1.1.1.1", "2.2.2.2"}));
  ASSERT_NE(id, AliasSets::npos);
  EXPECT_EQ(sets.sets()[id].size(), 2u);
}

TEST(AliasSets, NodesFileRoundTrip) {
  AliasSets sets;
  sets.add(addrs({"1.1.1.1", "2.2.2.2", "3.3.3.3"}));
  sets.add(addrs({"4.4.4.4", "5.5.5.5"}));
  std::stringstream buf;
  sets.write(buf);
  const AliasSets back = AliasSets::read(buf);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.find(IPAddr::must_parse("3.3.3.3")),
            back.find(IPAddr::must_parse("1.1.1.1")));
  EXPECT_NE(back.find(IPAddr::must_parse("4.4.4.4")),
            back.find(IPAddr::must_parse("1.1.1.1")));
}

TEST(AliasSets, ReadsItdkStyleLines) {
  std::istringstream in(
      "# nodes\n"
      "node N1:  4.69.161.30 4.69.161.153\n"
      "node N2:  195.22.196.142 195.22.196.143 195.22.196.144\n"
      "not a node line\n");
  const AliasSets sets = AliasSets::read(in);
  EXPECT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets.find(IPAddr::must_parse("4.69.161.153")), 0u);
  EXPECT_EQ(sets.find(IPAddr::must_parse("195.22.196.144")), 1u);
}
