#include "trace/sanitize.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/experiment.h"
#include "test_util.h"
#include "trace/trace_io.h"

namespace mapit::trace {
namespace {

using testutil::corpus_from;

/// The corpus in text form. The text drops probe TTLs, so stripped traces
/// compare by their surviving hops; tests check the kept TTLs separately.
std::vector<std::string> lines(const TraceCorpus& corpus) {
  std::vector<std::string> out;
  for (const TraceRow row : corpus.traces()) out.push_back(format_trace(row));
  return out;
}

TEST(Sanitize, RemovesQuotedTtl0Hops) {
  // The buggy-router artifact (§4.1): the hop quoting TTL 0 goes away, the
  // rest of the trace stays.
  const auto result = sanitize(corpus_from({
      "0|9.9.9.9|1.0.0.1 2.0.0.1@0 2.0.0.1 3.0.0.1",
  }));
  ASSERT_EQ(result.clean.size(), 1u);
  const TraceRow t = result.clean.traces()[0];
  ASSERT_EQ(t.hops.size(), 3u);
  EXPECT_EQ(t.hops[0].address, testutil::addr("1.0.0.1"));
  EXPECT_EQ(t.hops[1].address, testutil::addr("2.0.0.1"));
  EXPECT_EQ(t.hops[1].probe_ttl, 3);  // original TTL is preserved
  EXPECT_EQ(result.stats.removed_ttl0_hops, 1u);
}

TEST(Sanitize, TtlRemovalBreaksFalseAdjacency) {
  const auto result = sanitize(corpus_from({
      "0|9.9.9.9|1.0.0.1 3.0.0.1@0 3.0.0.1",
  }));
  const TraceRow t = result.clean.traces()[0];
  ASSERT_EQ(t.hops.size(), 2u);
  // 1.0.0.1 at TTL 1 and 3.0.0.1 at TTL 3: no longer consecutive, so the
  // neighbour-set builder will not pair them.
  EXPECT_EQ(t.hops[0].probe_ttl, 1);
  EXPECT_EQ(t.hops[1].probe_ttl, 3);
}

TEST(Sanitize, DiscardsTracesWithInterfaceCycles) {
  const auto result = sanitize(corpus_from({
      "0|9.9.9.9|1.0.0.1 1.0.0.2 1.0.0.1",  // cycle: dropped
      "1|9.9.9.9|1.0.0.1 1.0.0.2",          // clean: kept
  }));
  EXPECT_EQ(result.clean.size(), 1u);
  EXPECT_EQ(result.stats.discarded_traces, 1u);
  EXPECT_EQ(result.stats.input_traces, 2u);
  EXPECT_NEAR(result.stats.discard_fraction(), 0.5, 1e-9);
}

TEST(Sanitize, Ttl0RemovalHappensBeforeCycleCheck) {
  // The repeated address only exists through the buggy hop; stripping it
  // first means the trace survives (the paper sanitizes then checks).
  const auto result = sanitize(corpus_from({
      "0|9.9.9.9|1.0.0.1 1.0.0.2 1.0.0.1@0 1.0.0.3",
  }));
  EXPECT_EQ(result.clean.size(), 1u);
  EXPECT_EQ(result.stats.discarded_traces, 0u);
}

TEST(Sanitize, AddressRetentionAccounting) {
  const auto result = sanitize(corpus_from({
      "0|9.9.9.9|1.0.0.1 1.0.0.2 1.0.0.1",  // cycle: loses 1.0.0.2
      "1|9.9.9.9|1.0.0.1 1.0.0.3",
  }));
  EXPECT_EQ(result.stats.input_addresses, 3u);
  EXPECT_EQ(result.stats.retained_addresses, 2u);
  EXPECT_NEAR(result.stats.address_retention(), 2.0 / 3.0, 1e-9);
}

TEST(Sanitize, EmptyCorpus) {
  const auto result = sanitize(TraceCorpus{});
  EXPECT_TRUE(result.clean.empty());
  EXPECT_EQ(result.stats.discard_fraction(), 0.0);
  EXPECT_EQ(result.stats.address_retention(), 1.0);
}

TEST(Sanitize, OutputInvariantsOnMessyCorpus) {
  // Property: after sanitization no trace has a cycle or a quoted-TTL-0 hop.
  TraceCorpus corpus = corpus_from({
      "0|9.9.9.9|1.0.0.1 2.0.0.1@0 1.0.0.2 1.0.0.1",
      "1|9.9.9.9|1.0.0.1@0 1.0.0.2@0 1.0.0.3@0",
      "2|9.9.9.9|* * *",
      "3|9.9.9.9|5.0.0.1 5.0.0.2 5.0.0.3 5.0.0.2",
      "4|9.9.9.9|6.0.0.1 6.0.0.1 6.0.0.2",
  });
  const auto result = sanitize(corpus);
  for (const TraceRow t : result.clean.traces()) {
    EXPECT_FALSE(has_interface_cycle(t));
    for (const TraceHop& hop : t.hops) {
      EXPECT_FALSE(hop.responsive && hop.quoted && hop.quoted_ttl == 0);
    }
  }
}

TEST(Sanitize, Ttl0HopsAtHeadTailAndEverywhere) {
  const auto result = sanitize(corpus_from({
      "0|9.9.9.9|1.0.0.1@0 1.0.0.2 1.0.0.3",      // head
      "1|9.9.9.9|1.0.0.1 1.0.0.2 1.0.0.3@0",      // tail
      "2|9.9.9.9|2.0.0.1@0 2.0.0.2@0 2.0.0.3@0",  // every hop
      "3|9.9.9.9|1.0.0.1@1 1.0.0.2@255",          // quoted, but not 0
  }));
  EXPECT_EQ(result.stats.removed_ttl0_hops, 5u);
  EXPECT_EQ(result.stats.discarded_traces, 0u);
  EXPECT_EQ(lines(result.clean),
            (std::vector<std::string>{"0|9.9.9.9|1.0.0.2 1.0.0.3",
                                      "1|9.9.9.9|1.0.0.1 1.0.0.2",
                                      "2|9.9.9.9|",
                                      "3|9.9.9.9|1.0.0.1@1 1.0.0.2@255"}));
  const auto rows = result.clean.traces();
  EXPECT_EQ(rows[0].hops[0].probe_ttl, 2);
  EXPECT_EQ(rows[1].hops[1].probe_ttl, 2);
  EXPECT_EQ(rows[3].hops[1].probe_ttl, 2);
  EXPECT_TRUE(rows[2].hops.empty());
  // The stripped-everywhere trace's addresses exist only in the input.
  EXPECT_EQ(result.stats.input_addresses, 6u);
  EXPECT_EQ(result.stats.retained_addresses, 3u);
}

TEST(Sanitize, StrippingOnlyRemovesCycles) {
  // Removing hops can hide a cycle (the separating or repeating hop quoted
  // TTL 0) but never create one, so every cycle the check sees after
  // stripping was in the input; the TTL-0 hop between the two 1.0.0.1s
  // does not save the first trace.
  const auto result = sanitize(corpus_from({
      "0|9.9.9.9|1.0.0.1 1.0.0.2 3.0.0.1@0 1.0.0.1",  // cycle survives
      "1|9.9.9.9|1.0.0.1 3.0.0.1@0 1.0.0.1",          // separator stripped
      "2|9.9.9.9|1.0.0.1 1.0.0.2 1.0.0.1@0",          // repeat stripped
  }));
  EXPECT_EQ(result.stats.discarded_traces, 1u);
  EXPECT_EQ(result.stats.removed_ttl0_hops, 3u);
  EXPECT_EQ(lines(result.clean),
            (std::vector<std::string>{"1|9.9.9.9|1.0.0.1 1.0.0.1",
                                      "2|9.9.9.9|1.0.0.1 1.0.0.2"}));
  EXPECT_EQ(result.clean.traces()[0].hops[1].probe_ttl, 3);
}

TEST(Sanitize, OnlySilentHopsTraceIsKept) {
  const auto result = sanitize(corpus_from({"0|9.9.9.9|* * *"}));
  EXPECT_EQ(lines(result.clean), std::vector<std::string>{"0|9.9.9.9|* * *"});
  EXPECT_EQ(result.stats.discarded_traces, 0u);
  EXPECT_EQ(result.stats.input_addresses, 0u);
  EXPECT_TRUE(result.all_addresses.empty());
  EXPECT_EQ(result.stats.address_retention(), 1.0);
}

TEST(Sanitize, AllAddressesIsTheInputPopulation) {
  const TraceCorpus corpus = corpus_from({
      "0|9.9.9.9|1.0.0.1 1.0.0.2 1.0.0.1",  // discarded, still counted
      "1|9.9.9.9|* 1.0.0.3@0",              // stripped, still counted
  });
  EXPECT_EQ(sanitize(corpus).all_addresses, corpus.distinct_addresses());
}

TEST(Sanitize, IdenticalForEveryThreadCount) {
  const auto experiment =
      eval::Experiment::build(eval::ExperimentConfig::small());
  const TraceCorpus& corpus = experiment->raw_corpus();
  const SanitizeResult sequential = sanitize(corpus, 1);
  ASSERT_GT(sequential.stats.discarded_traces, 0u);
  ASSERT_GT(sequential.stats.removed_ttl0_hops, 0u);
  for (const unsigned threads : {2u, 8u}) {
    const SanitizeResult parallel = sanitize(corpus, threads);
    EXPECT_EQ(parallel.stats.input_traces, sequential.stats.input_traces);
    EXPECT_EQ(parallel.stats.discarded_traces,
              sequential.stats.discarded_traces);
    EXPECT_EQ(parallel.stats.removed_ttl0_hops,
              sequential.stats.removed_ttl0_hops);
    EXPECT_EQ(parallel.stats.input_addresses, sequential.stats.input_addresses);
    EXPECT_EQ(parallel.stats.retained_addresses,
              sequential.stats.retained_addresses);
    EXPECT_EQ(parallel.all_addresses, sequential.all_addresses);
    EXPECT_TRUE(parallel.clean == sequential.clean) << threads << " threads";
  }
  EXPECT_EQ(sequential.stats.retained_addresses,
            sequential.clean.distinct_addresses().size());
}

}  // namespace
}  // namespace mapit::trace
