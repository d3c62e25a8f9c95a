#include "trace/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "eval/experiment.h"
#include "test_util.h"
#include "trace/trace_io.h"

namespace mapit::trace {
namespace {

using testutil::addr;
using testutil::corpus_from;

Trace trace_of(std::initializer_list<const char*> hops) {
  Trace t;
  t.destination = addr("9.9.9.9");
  std::uint8_t ttl = 0;
  for (const char* hop : hops) {
    ++ttl;
    t.hops.push_back(std::string_view(hop) == "*"
                         ? TraceHop::silent(ttl)
                         : TraceHop::reply(ttl, addr(hop)));
  }
  return t;
}

TEST(Trace, ResponsiveHops) {
  EXPECT_EQ(responsive_hops(trace_of({"1.0.0.1", "*", "1.0.0.2"})), 2u);
  EXPECT_EQ(responsive_hops(trace_of({"*", "*"})), 0u);
  EXPECT_EQ(responsive_hops(Trace{}), 0u);
}

TEST(Trace, NoCycleInSimplePath) {
  EXPECT_FALSE(has_interface_cycle(trace_of({"1.0.0.1", "1.0.0.2", "1.0.0.3"})));
}

TEST(Trace, CycleWhenAddressRepeatsWithGap) {
  // Viger et al. cycle: same address twice, separated by a different one.
  EXPECT_TRUE(has_interface_cycle(trace_of({"1.0.0.1", "1.0.0.2", "1.0.0.1"})));
}

TEST(Trace, ImmediateRepeatIsNotACycle) {
  // A router answering two consecutive TTLs is not a cycle (footnote 5).
  EXPECT_FALSE(
      has_interface_cycle(trace_of({"1.0.0.1", "1.0.0.1", "1.0.0.2"})));
}

TEST(Trace, NullHopsDoNotSeparateForCycleDetection) {
  // A '*' between two occurrences is not a *different address*.
  EXPECT_FALSE(has_interface_cycle(trace_of({"1.0.0.1", "*", "1.0.0.1"})));
  // But a real address after the '*' still makes it a cycle.
  EXPECT_TRUE(
      has_interface_cycle(trace_of({"1.0.0.1", "*", "1.0.0.2", "1.0.0.1"})));
}

TEST(Trace, LongRangeCycleDetected) {
  EXPECT_TRUE(has_interface_cycle(
      trace_of({"1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4", "1.0.0.2"})));
}

TEST(Trace, CycleAfterARepeatedRunDetected) {
  // The second run of 1.0.0.1 starts after a different address.
  EXPECT_TRUE(has_interface_cycle(
      trace_of({"1.0.0.1", "1.0.0.1", "1.0.0.2", "1.0.0.2", "1.0.0.1"})));
}

TEST(TraceHop, PresenceIsNotASentinelValue) {
  // 0.0.0.0 and quoted TTLs 0 and 255 are real values, distinct from '*'
  // and from a reply that quoted nothing.
  const TraceHop zero = TraceHop::reply(1, addr("0.0.0.0"));
  EXPECT_TRUE(zero.responsive);
  EXPECT_EQ(zero.address, addr("0.0.0.0"));
  EXPECT_NE(zero, TraceHop::silent(1));
  EXPECT_FALSE(TraceHop::silent(1).responsive);
  EXPECT_FALSE(zero.quoted);

  const TraceHop q0 = TraceHop::reply(2, addr("1.2.3.4"), 0);
  const TraceHop q255 = TraceHop::reply(2, addr("1.2.3.4"), 255);
  EXPECT_TRUE(q0.quoted);
  EXPECT_EQ(q0.quoted_ttl, 0);
  EXPECT_TRUE(q0.quotes_ttl0());
  EXPECT_EQ(q255.quoted_ttl, 255);
  EXPECT_FALSE(q255.quotes_ttl0());
  EXPECT_FALSE(zero.quotes_ttl0());
  EXPECT_NE(q0, TraceHop::reply(2, addr("1.2.3.4")));
  EXPECT_EQ(q255.probe_ttl, 2);
  EXPECT_EQ(sizeof(TraceHop), 8u);
}

TEST(TraceCorpus, RowsViewTheArena) {
  TraceCorpus corpus;
  corpus.add(trace_of({"1.0.0.1", "*"}));
  corpus.add(Trace{});
  corpus.add(trace_of({"1.0.0.2"}));
  ASSERT_EQ(corpus.size(), 3u);
  const auto rows = corpus.traces();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], TraceRow(trace_of({"1.0.0.1", "*"})));
  EXPECT_TRUE(rows[1].hops.empty());
  EXPECT_EQ(rows[2].hops[0].address, addr("1.0.0.2"));
  std::size_t seen = 0;
  for (const TraceRow row : rows) seen += row.hops.size();
  EXPECT_EQ(seen, 3u);
}

TEST(TraceCorpus, AppendKeepsOrderAndOffsets) {
  TraceCorpus a = corpus_from({"0|9.9.9.9|1.0.0.1 1.0.0.2"});
  TraceCorpus b = corpus_from({"1|9.9.9.9|*", "2|9.9.9.9|1.0.0.3@0"});
  a.append(b);
  EXPECT_EQ(a, corpus_from({"0|9.9.9.9|1.0.0.1 1.0.0.2", "1|9.9.9.9|*",
                            "2|9.9.9.9|1.0.0.3@0"}));
}

TEST(TraceCorpus, DistinctAddressesSortedUnique) {
  const TraceCorpus corpus = corpus_from({
      "0|9.9.9.9|1.0.0.2 1.0.0.1",
      "1|9.9.9.9|1.0.0.1 1.0.0.3",
  });
  const auto addresses = corpus.distinct_addresses();
  ASSERT_EQ(addresses.size(), 3u);
  EXPECT_EQ(addresses[0], addr("1.0.0.1"));
  EXPECT_EQ(addresses[1], addr("1.0.0.2"));
  EXPECT_EQ(addresses[2], addr("1.0.0.3"));
}

TEST(TraceCorpus, ZeroAddressIsAnAddress) {
  const TraceCorpus corpus = corpus_from({"0|9.9.9.9|0.0.0.0 * 1.0.0.1"});
  const auto addresses = corpus.distinct_addresses();
  ASSERT_EQ(addresses.size(), 2u);
  EXPECT_EQ(addresses[0], addr("0.0.0.0"));
}

TEST(TraceCorpus, AdjacentAddressesRequireConsecutiveTtls) {
  const TraceCorpus corpus = corpus_from({
      "0|9.9.9.9|1.0.0.1 * 1.0.0.2",   // gap: not adjacent
      "1|9.9.9.9|1.0.0.3 1.0.0.4",     // adjacent
      "2|9.9.9.9|1.0.0.5",             // alone: not adjacent
  });
  const auto adjacent = corpus.adjacent_addresses();
  ASSERT_EQ(adjacent.size(), 2u);
  EXPECT_EQ(adjacent[0], addr("1.0.0.3"));
  EXPECT_EQ(adjacent[1], addr("1.0.0.4"));
}

TEST(TraceCorpus, EmptyCorpus) {
  const TraceCorpus corpus;
  EXPECT_TRUE(corpus.empty());
  EXPECT_TRUE(corpus.traces().empty());
  EXPECT_TRUE(corpus.distinct_addresses().empty());
  EXPECT_TRUE(corpus.adjacent_addresses().empty());
}

/// Address populations computed from the text form alone: every hop token
/// that is not '*', minus its "@Q" suffix; adjacent = two such tokens in a
/// row (each token is one probe TTL).
struct TextPopulation {
  std::set<net::Ipv4Address> distinct;
  std::set<net::Ipv4Address> adjacent;
};

TextPopulation population_from_text(const TraceCorpus& corpus) {
  TextPopulation out;
  for (const TraceRow row : corpus.traces()) {
    const std::string line = format_trace(row);
    std::istringstream hops(line.substr(line.rfind('|') + 1));
    std::optional<net::Ipv4Address> previous;
    std::string token;
    while (hops >> token) {
      if (token == "*") {
        previous.reset();
        continue;
      }
      const net::Ipv4Address address = addr(token.substr(0, token.find('@')));
      out.distinct.insert(address);
      if (previous) {
        out.adjacent.insert(*previous);
        out.adjacent.insert(address);
      }
      previous = address;
    }
  }
  return out;
}

TEST(TraceCorpus, PopulationsMatchTextReferenceOnStandardCorpus) {
  // The raw campaign: simulated hops carry consecutive probe TTLs, so the
  // text form keeps every adjacency.
  const auto experiment =
      eval::Experiment::build(eval::ExperimentConfig::standard());
  const TraceCorpus& corpus = experiment->raw_corpus();
  const TextPopulation expected = population_from_text(corpus);
  ASSERT_FALSE(expected.adjacent.empty());
  const auto distinct = corpus.distinct_addresses();
  const auto adjacent = corpus.adjacent_addresses();
  EXPECT_TRUE(std::is_sorted(distinct.begin(), distinct.end()));
  EXPECT_TRUE(std::is_sorted(adjacent.begin(), adjacent.end()));
  EXPECT_EQ(std::set<net::Ipv4Address>(distinct.begin(), distinct.end()),
            expected.distinct);
  EXPECT_EQ(std::set<net::Ipv4Address>(adjacent.begin(), adjacent.end()),
            expected.adjacent);
  EXPECT_EQ(distinct.size(), expected.distinct.size());
  EXPECT_EQ(adjacent.size(), expected.adjacent.size());
}

}  // namespace
}  // namespace mapit::trace
