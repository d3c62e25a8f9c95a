#include "graph/interface_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "graph/graph_input.h"
#include "test_util.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace mapit::graph {
namespace {

using testutil::addr;
using testutil::corpus_from;

InterfaceGraph graph_of(std::initializer_list<std::string_view> lines) {
  // InterfaceGraph copies what it needs; the corpus can be a temporary.
  const trace::TraceCorpus corpus = corpus_from(lines);
  return InterfaceGraph(corpus, corpus.distinct_addresses());
}

/// Addresses named by the neighbour span of `half`, in span order (empty
/// for unknown addresses and phantoms).
std::vector<net::Ipv4Address> neighbors(const InterfaceGraph& graph,
                                        const InterfaceHalf& half) {
  std::vector<net::Ipv4Address> out;
  const HalfId id = graph.half_id(half);
  if (id == kInvalidHalfId) return out;
  for (HalfId nid : graph.neighbor_ids(id)) {
    out.push_back(graph.address_at(nid));
  }
  return out;
}

/// Whether `address` is a record: seen adjacent to another address.
bool is_record(const InterfaceGraph& graph, net::Ipv4Address address) {
  return graph.half_id(forward_half(address)) < graph.record_half_count();
}

using Addresses = std::vector<net::Ipv4Address>;

TEST(InterfaceGraph, BuildsPaperFigure3NeighborSets) {
  // Fig 3's four path fragments around 198.71.46.180.
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|109.105.98.10 198.71.46.180 205.233.255.36",
      "1|9.9.9.9|109.105.98.10 198.71.46.180 216.249.136.197",
      "2|9.9.9.9|198.71.45.236 198.71.46.180 *",
      "3|9.9.9.9|109.105.98.10 198.71.46.180 199.109.5.1",
  });
  ASSERT_TRUE(is_record(graph, addr("198.71.46.180")));
  // N_F: three unique successors; N_B: two unique predecessors — exactly
  // the sets shown in the paper's Fig 3.
  EXPECT_EQ(neighbors(graph, forward_half(addr("198.71.46.180"))),
            (Addresses{addr("199.109.5.1"), addr("205.233.255.36"),
                       addr("216.249.136.197")}));
  EXPECT_EQ(neighbors(graph, backward_half(addr("198.71.46.180"))),
            (Addresses{addr("109.105.98.10"), addr("198.71.45.236")}));
}

TEST(InterfaceGraph, DuplicatesCollapseToUniqueNeighbors) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 2.0.0.1",
      "1|9.9.9.9|1.0.0.1 2.0.0.1",
      "2|9.9.9.9|1.0.0.1 2.0.0.1",
  });
  ASSERT_TRUE(is_record(graph, addr("2.0.0.1")));
  EXPECT_EQ(neighbors(graph, backward_half(addr("2.0.0.1"))).size(), 1u);
}

TEST(InterfaceGraph, NullHopsBreakAdjacency) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 * 2.0.0.1",
  });
  EXPECT_FALSE(is_record(graph, addr("1.0.0.1")));
  EXPECT_FALSE(is_record(graph, addr("2.0.0.1")));
  EXPECT_EQ(graph.size(), 0u);
}

TEST(InterfaceGraph, TtlGapsBreakAdjacency) {
  // Sanitizer-stripped hops leave TTL gaps; the builder must honour them.
  trace::TraceCorpus corpus = corpus_from({
      "0|9.9.9.9|1.0.0.1 2.0.0.1@0 3.0.0.1",
  });
  const auto sanitized = trace::sanitize(corpus);
  const InterfaceGraph graph(sanitized.clean, corpus.distinct_addresses());
  EXPECT_FALSE(is_record(graph, addr("1.0.0.1")));
  EXPECT_FALSE(is_record(graph, addr("3.0.0.1")));
}

TEST(InterfaceGraph, SpecialAddressesExcluded) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 192.168.0.1 2.0.0.1",
      "1|9.9.9.9|1.0.0.1 3.0.0.1",
  });
  // The private hop forms no pairs in either direction.
  EXPECT_FALSE(is_record(graph, addr("192.168.0.1")));
  ASSERT_TRUE(is_record(graph, addr("1.0.0.1")));
  EXPECT_EQ(neighbors(graph, forward_half(addr("1.0.0.1"))),
            (Addresses{addr("3.0.0.1")}));
}

TEST(InterfaceGraph, SelfAdjacencyIgnored) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 1.0.0.1 2.0.0.1",
  });
  ASSERT_TRUE(is_record(graph, addr("1.0.0.1")));
  EXPECT_EQ(neighbors(graph, forward_half(addr("1.0.0.1"))),
            (Addresses{addr("2.0.0.1")}));
  EXPECT_TRUE(neighbors(graph, backward_half(addr("1.0.0.1"))).empty());
}

TEST(InterfaceGraph, NeighborsByHalf) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 2.0.0.1 3.0.0.1",
  });
  EXPECT_EQ(neighbors(graph, forward_half(addr("2.0.0.1"))).size(), 1u);
  EXPECT_EQ(neighbors(graph, backward_half(addr("2.0.0.1"))).size(), 1u);
  EXPECT_TRUE(neighbors(graph, backward_half(addr("1.0.0.1"))).empty());
  EXPECT_TRUE(neighbors(graph, forward_half(addr("99.0.0.1"))).empty());
}

TEST(InterfaceGraph, OtherSideHalfFlipsDirectionAndAddress) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 2.0.0.1",
  });
  // 2.0.0.1 is a /30 host with no witness: other side 2.0.0.2.
  const InterfaceHalf other =
      graph.other_side_half(backward_half(addr("2.0.0.1")));
  EXPECT_EQ(other.address, addr("2.0.0.2"));
  EXPECT_EQ(other.direction, Direction::kForward);
}

TEST(InterfaceGraph, StatsCountMultiNeighborAndOverlap) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 5.0.0.1 2.0.0.1",
      "1|9.9.9.9|1.0.0.2 5.0.0.1 2.0.0.2",
      "2|9.9.9.9|2.0.0.1 5.0.0.1",  // 2.0.0.1 both before and after 5.0.0.1
  });
  const GraphStats stats = graph.stats();
  ASSERT_TRUE(is_record(graph, addr("5.0.0.1")));
  EXPECT_GT(neighbors(graph, forward_half(addr("5.0.0.1"))).size(), 1u);
  EXPECT_GT(neighbors(graph, backward_half(addr("5.0.0.1"))).size(), 1u);
  EXPECT_EQ(stats.both_directions_overlap, 2u);  // 5.0.0.1 and 2.0.0.1
  EXPECT_GE(stats.forward_multi, 1u);
  EXPECT_GE(stats.backward_multi, 1u);
}

TEST(InterfaceGraph, RecordsSortedByAddress) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|9.0.0.1 1.0.0.1 5.0.0.1",
  });
  ASSERT_EQ(graph.size(), 3u);
  EXPECT_LT(graph.address_at(0), graph.address_at(2));
  EXPECT_LT(graph.address_at(2), graph.address_at(4));
}

// ---------------------------------------------------------------------------
// Dense half-ID layout (consumed by the engine's flat state slabs).
// ---------------------------------------------------------------------------

TEST(InterfaceGraphDense, HalfIdRoundTripsAndFollowsAddressOrder) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|9.0.0.1 1.0.0.1 5.0.0.1",
  });
  ASSERT_EQ(graph.size(), 3u);
  EXPECT_EQ(graph.record_half_count(), 6u);
  const Addresses sorted{addr("1.0.0.1"), addr("5.0.0.1"), addr("9.0.0.1")};
  // id = interface index * 2 + direction; records are in address order, so
  // ids enumerate (address, direction) lexicographically.
  for (HalfId id = 0; id < graph.record_half_count(); ++id) {
    const InterfaceHalf half = graph.half_at(id);
    EXPECT_EQ(graph.half_id(half), id);
    EXPECT_EQ(half.direction, (id & 1u) == 0 ? Direction::kForward
                                             : Direction::kBackward);
    EXPECT_EQ(half.address, sorted[id / 2]);
  }
  EXPECT_EQ(graph.half_id(forward_half(addr("99.0.0.1"))), kInvalidHalfId);
}

TEST(InterfaceGraphDense, PhantomOtherSidesGetIdsAfterRecords) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 2.0.0.1",
  });
  // 2.0.0.2 (other side of 2.0.0.1) appears in no trace: a phantom. It
  // gets ids above every record half, with no neighbours of its own.
  EXPECT_GT(graph.phantom_count(), 0u);
  EXPECT_EQ(graph.half_count(),
            graph.record_half_count() + 2 * graph.phantom_count());
  const HalfId phantom = graph.half_id(forward_half(addr("2.0.0.2")));
  ASSERT_NE(phantom, kInvalidHalfId);
  EXPECT_GE(phantom, graph.record_half_count());
  EXPECT_EQ(graph.address_at(phantom), addr("2.0.0.2"));
  EXPECT_TRUE(graph.neighbor_ids(phantom).empty());
}

TEST(InterfaceGraphDense, NeighborIdSpansMirrorNeighborLists) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 5.0.0.1 2.0.0.1",
      "1|9.9.9.9|1.0.0.2 5.0.0.1 2.0.0.2",
  });
  // N_F / N_B read straight off the two traces.
  const std::map<InterfaceHalf, Addresses> expected{
      {forward_half(addr("1.0.0.1")), {addr("5.0.0.1")}},
      {forward_half(addr("1.0.0.2")), {addr("5.0.0.1")}},
      {backward_half(addr("2.0.0.1")), {addr("5.0.0.1")}},
      {backward_half(addr("2.0.0.2")), {addr("5.0.0.1")}},
      {forward_half(addr("5.0.0.1")), {addr("2.0.0.1"), addr("2.0.0.2")}},
      {backward_half(addr("5.0.0.1")), {addr("1.0.0.1"), addr("1.0.0.2")}},
  };
  ASSERT_EQ(graph.size(), 5u);
  for (HalfId id = 0; id < graph.record_half_count(); ++id) {
    const InterfaceHalf half = graph.half_at(id);
    const auto it = expected.find(half);
    const Addresses addresses = it == expected.end() ? Addresses{} : it->second;
    const auto ids = graph.neighbor_ids(id);
    ASSERT_EQ(ids.size(), addresses.size()) << half.to_string();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      // Span entries are the opposite-direction halves of the neighbour
      // addresses, in sorted address order.
      EXPECT_EQ(graph.half_at(ids[k]),
                (InterfaceHalf{addresses[k], opposite(half.direction)}))
          << half.to_string();
    }
  }
}

TEST(InterfaceGraphDense, NeighborSpansAreSymmetricAndSorted) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 5.0.0.1 2.0.0.1",
      "1|9.9.9.9|1.0.0.2 5.0.0.1 2.0.0.2",
      "2|9.9.9.9|2.0.0.1 5.0.0.1",
  });
  // h is in neighbor_ids(g) exactly when g is in neighbor_ids(h), and every
  // span is sorted ascending: the engine's dirty-set walk reads g's own
  // span as the halves that count g's vote, in deterministic order.
  for (HalfId g = 0; g < graph.half_count(); ++g) {
    const auto span = graph.neighbor_ids(g);
    EXPECT_TRUE(std::is_sorted(span.begin(), span.end()));
    for (HalfId h = 0; h < graph.half_count(); ++h) {
      const auto other = graph.neighbor_ids(h);
      const bool h_in_g = std::find(span.begin(), span.end(), h) != span.end();
      const bool g_in_h =
          std::find(other.begin(), other.end(), g) != other.end();
      EXPECT_EQ(h_in_g, g_in_h) << g << " " << h;
    }
  }
}

TEST(InterfaceGraphDense, OtherSideIdsMatchOtherSideHalves) {
  const InterfaceGraph graph = graph_of({
      "0|9.9.9.9|1.0.0.1 2.0.0.1",
      "1|9.9.9.9|1.0.0.2 2.0.0.2",
  });
  for (HalfId id = 0; id < graph.record_half_count(); ++id) {
    const InterfaceHalf other = graph.other_side_half(graph.half_at(id));
    ASSERT_NE(graph.other_side_id(id), kInvalidHalfId);
    EXPECT_EQ(graph.half_at(graph.other_side_id(id)), other);
  }
}

// ---------------------------------------------------------------------------
// fold postcondition: a graph folded batch by batch equals a cold build over
// the concatenated corpus, id for id.
// ---------------------------------------------------------------------------

trace::TraceCorpus corpus_of(const std::vector<std::string>& lines,
                             std::size_t begin, std::size_t end) {
  trace::TraceCorpus corpus;
  for (std::size_t i = begin; i < end; ++i) {
    corpus.add(trace::parse_trace(lines[i], "test trace"));
  }
  return corpus;
}

/// Mirrors the ingest pipeline: the other-side population is the merged
/// *unsanitized* address set, the graph sees only sanitized traces.
InterfaceGraph cold_graph(const std::vector<std::string>& lines) {
  const trace::TraceCorpus corpus = corpus_of(lines, 0, lines.size());
  return InterfaceGraph(trace::sanitize(corpus).clean,
                        corpus.distinct_addresses());
}

/// Builds from lines[0, cuts[0]) and folds [cuts[k], cuts[k+1]) in turn.
InterfaceGraph folded_graph(const std::vector<std::string>& lines,
                            const std::vector<std::size_t>& cuts,
                            unsigned threads) {
  std::vector<std::size_t> bounds{0};
  bounds.insert(bounds.end(), cuts.begin(), cuts.end());
  bounds.push_back(lines.size());
  const trace::TraceCorpus base = corpus_of(lines, 0, bounds[1]);
  std::vector<net::Ipv4Address> addresses = base.distinct_addresses();
  InterfaceGraph graph(trace::sanitize(base).clean, addresses, threads);
  for (std::size_t k = 1; k + 1 < bounds.size(); ++k) {
    const trace::TraceCorpus delta = corpus_of(lines, bounds[k], bounds[k + 1]);
    const std::vector<net::Ipv4Address> seen = delta.distinct_addresses();
    addresses.insert(addresses.end(), seen.begin(), seen.end());
    std::sort(addresses.begin(), addresses.end());
    addresses.erase(std::unique(addresses.begin(), addresses.end()),
                    addresses.end());
    graph.fold(trace::sanitize(delta).clean, addresses, threads);
  }
  return graph;
}

void expect_same_graph(const InterfaceGraph& folded,
                       const InterfaceGraph& cold) {
  ASSERT_EQ(folded.size(), cold.size());
  ASSERT_EQ(folded.half_count(), cold.half_count());
  for (HalfId id = 0; id < cold.half_count(); ++id) {
    EXPECT_EQ(folded.address_at(id), cold.address_at(id)) << id;
    const auto f = folded.neighbor_ids(id);
    const auto c = cold.neighbor_ids(id);
    EXPECT_TRUE(std::equal(f.begin(), f.end(), c.begin(), c.end())) << id;
    EXPECT_EQ(folded.other_side_id(id), cold.other_side_id(id)) << id;
  }
  const GraphStats fs = folded.stats();
  const GraphStats cs = cold.stats();
  EXPECT_EQ(fs.interfaces, cs.interfaces);
  EXPECT_EQ(fs.forward_multi, cs.forward_multi);
  EXPECT_EQ(fs.backward_multi, cs.backward_multi);
  EXPECT_EQ(fs.both_directions_overlap, cs.both_directions_overlap);
  EXPECT_EQ(fs.slash31_fraction, cs.slash31_fraction);
}

TEST(InterfaceGraphFold, FoldEqualsColdBuildForAnySplit) {
  // Random short paths over a few dense /26s: plenty of shared neighbours,
  // /30-vs-/31 witnesses, phantoms and cycle-discarded traces.
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<int> block(1, 3);
  std::uniform_int_distribution<int> host(0, 63);
  std::uniform_int_distribution<int> length(2, 6);
  std::vector<std::string> lines;
  for (int t = 0; t < 120; ++t) {
    std::string line = std::to_string(t % 4) + "|9.9.9.9|";
    const int hops = length(rng);
    for (int h = 0; h < hops; ++h) {
      if (h > 0) line += ' ';
      line += std::to_string(block(rng)) + ".0.0." + std::to_string(host(rng));
    }
    lines.push_back(line);
  }
  const InterfaceGraph cold = cold_graph(lines);
  ASSERT_GT(cold.phantom_count(), 0u);
  std::vector<std::size_t> every_trace;
  for (std::size_t i = 1; i < lines.size(); ++i) every_trace.push_back(i);
  for (const std::vector<std::size_t>& cuts :
       {std::vector<std::size_t>{0}, {60}, {1, 2, 3}, {30, 60, 90, 119},
        every_trace}) {
    for (unsigned threads : {1u, 2u}) {
      SCOPED_TRACE(testing::Message() << cuts.size() << " cuts, " << threads
                                      << " threads");
      expect_same_graph(folded_graph(lines, cuts, threads), cold);
    }
  }
}

TEST(InterfaceGraphFold, DeltaWitnessFlipsExistingRecordToSlash31) {
  const std::vector<std::string> lines{
      "0|9.9.9.9|5.0.0.1 1.0.0.1 6.0.0.1",
      "1|9.9.9.9|7.0.0.1 1.0.0.0",  // witnesses 1.0.0.1's reserved slot
  };
  const InterfaceGraph base = cold_graph({lines[0]});
  const HalfId before = base.half_id(forward_half(addr("1.0.0.1")));
  EXPECT_EQ(base.address_at(base.other_side_id(before)), addr("1.0.0.2"));

  const InterfaceGraph folded = folded_graph(lines, {1}, 1);
  const HalfId after = folded.half_id(forward_half(addr("1.0.0.1")));
  EXPECT_EQ(folded.address_at(folded.other_side_id(after)), addr("1.0.0.0"));
  expect_same_graph(folded, cold_graph(lines));
}

TEST(InterfaceGraphFold, DiscardedDeltaStillWitnessesFlip) {
  const std::vector<std::string> lines{
      "0|9.9.9.9|5.0.0.1 1.0.0.1 6.0.0.1",
      // A cycle: sanitize drops the trace, but 1.0.0.3 still witnesses.
      "1|9.9.9.9|8.0.0.1 1.0.0.3 8.0.0.1",
  };
  const trace::TraceCorpus delta = corpus_of(lines, 1, 2);
  ASSERT_EQ(trace::sanitize(delta).clean.size(), 0u);

  const InterfaceGraph folded = folded_graph(lines, {1}, 1);
  const HalfId id = folded.half_id(forward_half(addr("1.0.0.1")));
  EXPECT_EQ(folded.address_at(folded.other_side_id(id)), addr("1.0.0.0"));
  EXPECT_GE(folded.other_side_id(id), folded.record_half_count());
  expect_same_graph(folded, cold_graph(lines));
}

TEST(InterfaceGraphFold, NoOpDeltaLeavesGraphUntouched) {
  const std::vector<std::string> lines{
      "0|9.9.9.9|5.0.0.1 1.0.0.1 6.0.0.1",
      "1|9.9.9.9|7.0.0.1 1.0.0.2 5.0.0.1",
  };
  InterfaceGraph graph = cold_graph(lines);
  const InterfaceGraph before = cold_graph(lines);
  // Nothing new: the same edges again, a cycle-discarded trace and a
  // TTL-0 hop, all over known addresses.
  const std::vector<std::string> repeat{
      "2|9.9.9.9|5.0.0.1 1.0.0.1 6.0.0.1",
      "3|9.9.9.9|1.0.0.1 6.0.0.1 1.0.0.1",
      "4|9.9.9.9|7.0.0.1 1.0.0.2@0 5.0.0.1",
  };
  GraphDigest digest;
  for (const std::string& line : repeat) {
    digest.add_raw(trace::parse_trace(line, "test trace"));
  }
  const GraphInput delta = digest.finish();
  ASSERT_FALSE(delta.edges.empty());
  graph.fold(delta, 2);
  expect_same_graph(graph, before);

  // A new population address alone is not a no-op: 1.0.0.0 witnesses
  // 1.0.0.1's reserved /30 slot and flips it to /31.
  GraphDigest witness;
  witness.add_raw(trace::parse_trace("5|9.9.9.9|8.0.0.1 1.0.0.0 8.0.0.1"));
  const GraphInput flip = witness.finish();
  ASSERT_TRUE(flip.edges.empty());
  graph.fold(flip, 1);
  const HalfId id = graph.half_id(forward_half(addr("1.0.0.1")));
  EXPECT_EQ(graph.address_at(graph.other_side_id(id)), addr("1.0.0.0"));
}

TEST(InterfaceHalfType, NotationAndOpposite) {
  const InterfaceHalf half = forward_half(addr("198.71.46.180"));
  EXPECT_EQ(half.to_string(), "198.71.46.180_f");
  EXPECT_EQ(backward_half(addr("1.2.3.4")).to_string(), "1.2.3.4_b");
  EXPECT_EQ(opposite(Direction::kForward), Direction::kBackward);
  EXPECT_EQ(opposite(Direction::kBackward), Direction::kForward);
  EXPECT_NE(std::hash<InterfaceHalf>{}(forward_half(addr("1.2.3.4"))),
            std::hash<InterfaceHalf>{}(backward_half(addr("1.2.3.4"))));
}

}  // namespace
}  // namespace mapit::graph
