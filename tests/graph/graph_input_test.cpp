// The streamed digest against the row pipeline it replaces on the snapshot
// path: digest_corpus(bytes) must equal read_corpus -> sanitize ->
// InterfaceGraph(clean rows) in every fact the graph is built from — the
// edges, the address population, the sanitizing counts, the lenient
// LoadReport and the strict-mode error — for every thread count.
#include "graph/graph_input.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "graph/interface_graph.h"
#include "net/error.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace mapit::graph {
namespace {

/// Packed forward edges of `graph`, read back through its public spans.
std::vector<std::uint64_t> edges_of(const InterfaceGraph& graph) {
  std::vector<std::uint64_t> edges;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto id = static_cast<HalfId>(2 * i);
    for (HalfId neighbor : graph.neighbor_ids(id)) {
      edges.push_back(std::uint64_t{graph.address_at(id).value()} << 32 |
                      graph.address_at(neighbor).value());
    }
  }
  return edges;
}

/// What one load of `text` yields: the facts, or the strict-mode error.
struct Load {
  std::optional<std::string> error;
  std::vector<std::uint64_t> edges;
  std::vector<net::Ipv4Address> all_addresses;
  trace::SanitizeStats stats;
  LoadReport report;
};

Load row_pipeline(const std::string& text, unsigned threads, bool lenient) {
  Load load;
  try {
    std::istringstream in(text);
    const trace::TraceCorpus corpus =
        trace::read_corpus(in, threads, lenient ? &load.report : nullptr);
    const trace::SanitizeResult sanitized = trace::sanitize(corpus, threads);
    const InterfaceGraph graph(sanitized.clean, sanitized.all_addresses,
                               threads);
    load.edges = edges_of(graph);
    load.all_addresses = sanitized.all_addresses;
    load.stats = sanitized.stats;
  } catch (const ParseError& error) {
    load.error = error.what();
  }
  return load;
}

Load streamed(const std::string& text, unsigned threads, bool lenient) {
  Load load;
  try {
    std::istringstream in(text);
    const GraphInput input =
        digest_corpus(in, threads, lenient ? &load.report : nullptr);
    load.edges = input.edges;
    load.all_addresses = input.all_addresses;
    load.stats = input.stats;
    // The graph built from the digest stores exactly the digest's edges.
    EXPECT_EQ(edges_of(InterfaceGraph(input, threads)), input.edges);
  } catch (const ParseError& error) {
    load.error = error.what();
  }
  return load;
}

void expect_same(const Load& got, const Load& want) {
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.all_addresses, want.all_addresses);
  EXPECT_EQ(got.stats.input_traces, want.stats.input_traces);
  EXPECT_EQ(got.stats.discarded_traces, want.stats.discarded_traces);
  EXPECT_EQ(got.stats.removed_ttl0_hops, want.stats.removed_ttl0_hops);
  EXPECT_EQ(got.stats.input_addresses, want.stats.input_addresses);
  EXPECT_EQ(got.stats.retained_addresses, want.stats.retained_addresses);
  EXPECT_EQ(got.report.loaded(), want.report.loaded());
  EXPECT_EQ(got.report.skipped(), want.report.skipped());
  ASSERT_EQ(got.report.offenders().size(), want.report.offenders().size());
  for (std::size_t i = 0; i < want.report.offenders().size(); ++i) {
    const LoadReport::Offender& g = got.report.offenders()[i];
    const LoadReport::Offender& w = want.report.offenders()[i];
    EXPECT_EQ(g.line_no, w.line_no);
    EXPECT_EQ(g.byte_offset, w.byte_offset);
    EXPECT_EQ(g.error, w.error);
  }
}

/// The digest at threads 1, 2 and 8, strict and lenient, against the
/// sequential row pipeline.
void expect_digest_matches(const std::string& text) {
  for (const bool lenient : {false, true}) {
    const Load want = row_pipeline(text, 1, lenient);
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads
                                      << (lenient ? ", lenient" : ", strict"));
      expect_same(streamed(text, threads, lenient), want);
      expect_same(row_pipeline(text, threads, lenient), want);
    }
  }
}

std::string world_corpus(std::uint64_t seed) {
  eval::ExperimentConfig config = eval::ExperimentConfig::small();
  config.simulation.seed = seed;
  const auto experiment = eval::Experiment::build(config);
  std::ostringstream out;
  trace::write_corpus(out, experiment->raw_corpus());
  return out.str();
}

std::uint64_t edge(const char* a, const char* b) {
  return std::uint64_t{net::Ipv4Address::parse_or_throw(a).value()} << 32 |
         net::Ipv4Address::parse_or_throw(b).value();
}

GraphInput digest_of(const std::string& text, unsigned threads = 1) {
  std::istringstream in(text);
  return digest_corpus(in, threads);
}

TEST(GraphDigest, GeneratedWorldsMatchRowPipeline) {
  for (const std::uint64_t seed : {7u, 8u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::string text = world_corpus(seed);
    const GraphInput input = digest_of(text);
    ASSERT_GT(input.edges.size(), 100u);
    ASSERT_GT(input.stats.discarded_traces, 0u);
    expect_digest_matches(text);
  }
}

TEST(GraphDigest, MalformedLineMidBlock) {
  std::string text = world_corpus(7);
  // A damaged line well inside the first read block, and one far past it.
  for (const double at : {0.4, 0.9}) {
    const std::size_t line = text.find('\n', static_cast<std::size_t>(
                                                 static_cast<double>(text.size()) * at));
    text.insert(line + 1, "3|9.9.9.9|20.0.0.1 20.0.0\n");
  }
  expect_digest_matches(text);
  EXPECT_TRUE(row_pipeline(text, 1, false).error.has_value());
}

TEST(GraphDigest, Ttl0HopBreaksAdjacency) {
  const std::string text = "0|9.9.9.9|20.0.0.1 20.0.0.2@0 20.0.0.3\n";
  expect_digest_matches(text);
  const GraphInput input = digest_of(text);
  EXPECT_TRUE(input.edges.empty());
  EXPECT_EQ(input.stats.removed_ttl0_hops, 1u);
  EXPECT_EQ(input.all_addresses.size(), 3u);
  EXPECT_EQ(input.stats.retained_addresses, 2u);
}

TEST(GraphDigest, CycleCheckSeesTheStrippedTrace) {
  // Line 1 repeats 20.0.0.1 around a TTL-0 hop: a cycle only while the
  // hop is there, so the stripped trace is kept. Line 2 still has a cycle
  // once its TTL-0 hop is gone, and is discarded.
  const std::string text =
      "0|9.9.9.9|20.0.0.1 20.0.0.9@0 20.0.0.1 20.0.0.2\n"
      "1|9.9.9.9|20.0.1.1 20.0.1.2 20.0.1.9@0 20.0.1.1 20.0.1.3\n";
  expect_digest_matches(text);
  const GraphInput input = digest_of(text);
  EXPECT_EQ(input.stats.discarded_traces, 1u);
  EXPECT_EQ(input.edges,
            (std::vector<std::uint64_t>{edge("20.0.0.1", "20.0.0.2")}));
}

TEST(GraphDigest, SpecialPurposeAndZeroNeighboursAreDropped) {
  const std::string text =
      "0|9.9.9.9|20.0.0.1 10.0.0.1 20.0.0.2\n"
      "1|9.9.9.9|0.0.0.0 20.0.0.5 20.0.0.6 192.168.1.1\n"
      "2|9.9.9.9|20.0.0.7 100.64.0.1 * 20.0.0.8 20.0.0.8 20.0.0.9\n";
  expect_digest_matches(text);
  const GraphInput input = digest_of(text);
  EXPECT_EQ(input.edges,
            (std::vector<std::uint64_t>{edge("20.0.0.5", "20.0.0.6"),
                                        edge("20.0.0.8", "20.0.0.9")}));
  // Special-purpose addresses still join the §4.2 population.
  EXPECT_TRUE(std::binary_search(input.all_addresses.begin(),
                                 input.all_addresses.end(),
                                 net::Ipv4Address::parse_or_throw("0.0.0.0")));
}

TEST(GraphDigest, TwoHundredFiftyFiveHops) {
  std::string full = "0|9.9.9.9|";
  for (int h = 1; h <= 255; ++h) {
    full += "20.0." + std::to_string(h) + ".1 ";
  }
  const std::string too_long = "1|9.9.9.9|" + full.substr(10) + "20.1.0.1";
  const std::string text = full + "\n" + too_long + "\n" + full + "\n";
  expect_digest_matches(text);
  std::istringstream in(full + "\n");
  EXPECT_EQ(digest_corpus(in, 1).edges.size(), 254u);
  EXPECT_TRUE(row_pipeline(text, 1, false).error.has_value());
}

TEST(GraphDigest, EmptyInput) {
  expect_digest_matches("");
  expect_digest_matches("# header only\n\n");
  const GraphInput input = digest_of("");
  EXPECT_TRUE(input.edges.empty());
  EXPECT_EQ(InterfaceGraph(input).size(), 0u);
}

TEST(GraphDigest, CrlfDigestsLikeLf) {
  const std::string lf = world_corpus(8);
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf.push_back('\r');
    crlf.push_back(c);
  }
  for (const unsigned threads : {1u, 3u}) {
    const GraphInput a = digest_of(lf, threads);
    const GraphInput b = digest_of(crlf, threads);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.all_addresses, b.all_addresses);
  }
}

}  // namespace
}  // namespace mapit::graph
