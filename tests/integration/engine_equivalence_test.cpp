// Dense incremental engine equivalence: the dirty-set incremental recount
// (Options::incremental_recount, the default) must be observationally
// indistinguishable from full per-pass sweeps. A half is only skipped when
// none of its neighbours' frozen mappings changed, in which case its
// majority count — a pure function of the frozen view and its own base
// mapping — is unchanged, so skipping cannot alter any decision. This test
// pins that argument empirically: byte-identical serialized inference
// output and equal engine stats across both experiment scales, the f
// operating points evaluated in the paper (§5.3), and both remove rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "core/result_io.h"
#include "eval/experiment.h"
#include "graph/interface_graph.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace mapit {
namespace {

std::string serialize(const core::Result& result) {
  std::ostringstream out;
  core::write_inferences(out, result.inferences);
  core::write_inferences(out, result.uncertain);
  return out.str();
}

/// Parameter: true = standard scale, false = small scale.
class EngineEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  static const eval::Experiment& experiment(bool standard_scale) {
    static const auto standard =
        eval::Experiment::build(eval::ExperimentConfig::standard());
    static const auto small =
        eval::Experiment::build(eval::ExperimentConfig::small());
    return standard_scale ? *standard : *small;
  }
};

TEST_P(EngineEquivalenceTest, IncrementalMatchesFullSweep) {
  const eval::Experiment& exp = experiment(GetParam());
  for (double f : {0.5, 0.75, 1.0}) {
    for (core::RemoveRule rule :
         {core::RemoveRule::kMajority, core::RemoveRule::kAddRule}) {
      core::Options incremental;
      incremental.f = f;
      incremental.remove_rule = rule;
      incremental.incremental_recount = true;
      core::Options full = incremental;
      full.incremental_recount = false;

      const core::Result a = exp.run_mapit(incremental);
      const core::Result b = exp.run_mapit(full);

      const std::string label =
          "f=" + std::to_string(f) +
          " rule=" + std::to_string(static_cast<int>(rule));
      EXPECT_EQ(serialize(a), serialize(b)) << label;
      EXPECT_EQ(a.stats, b.stats) << label;
      EXPECT_EQ(a.final_mappings, b.final_mappings) << label;
    }
  }
}

// Parallel sweeps must be invisible: the engine evaluates full-sweep
// decisions against the frozen previous-pass view (paper §4.4.5), so
// workers counting disjoint HalfId ranges and committing proposals in
// ascending-id order reproduce the sequential mutation sequence exactly.
// This pins the claim: byte-identical output for threads ∈ {1, 2, 8},
// both remove rules, at the paper's default operating point.
TEST_P(EngineEquivalenceTest, ThreadCountInvariance) {
  const eval::Experiment& exp = experiment(GetParam());
  for (core::RemoveRule rule :
       {core::RemoveRule::kMajority, core::RemoveRule::kAddRule}) {
    core::Options sequential;
    sequential.remove_rule = rule;
    sequential.threads = 1;
    const core::Result reference = exp.run_mapit(sequential);
    const std::string expected = serialize(reference);

    for (unsigned threads : {2u, 8u}) {
      core::Options parallel_options = sequential;
      parallel_options.threads = threads;
      const core::Result parallel_result = exp.run_mapit(parallel_options);

      const std::string label =
          "threads=" + std::to_string(threads) +
          " rule=" + std::to_string(static_cast<int>(rule));
      EXPECT_EQ(expected, serialize(parallel_result)) << label;
      EXPECT_EQ(reference.stats, parallel_result.stats) << label;
      EXPECT_EQ(reference.final_mappings, parallel_result.final_mappings)
          << label;
    }
  }
}

// Same invariance for the ingestion pipeline: chunked parallel parsing,
// sanitization, and dense-layout graph construction must reproduce the
// sequential result element for element.
TEST_P(EngineEquivalenceTest, ParallelIngestionMatchesSequential) {
  const eval::Experiment& exp = experiment(GetParam());
  std::ostringstream serialized;
  trace::write_corpus(serialized, exp.raw_corpus());
  const std::string text = serialized.str();

  std::istringstream seq_in(text);
  const trace::TraceCorpus seq_corpus = trace::read_corpus(seq_in, 1);
  const auto seq_sanitized = trace::sanitize(seq_corpus, 1);
  const auto all_addresses = seq_corpus.distinct_addresses();
  const graph::InterfaceGraph seq_graph(seq_sanitized.clean, all_addresses, 1);

  for (unsigned threads : {2u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);

    std::istringstream par_in(text);
    const trace::TraceCorpus par_corpus = trace::read_corpus(par_in, threads);
    std::ostringstream seq_out, par_out;
    trace::write_corpus(seq_out, seq_corpus);
    trace::write_corpus(par_out, par_corpus);
    ASSERT_EQ(seq_out.str(), par_out.str()) << label;

    const auto par_sanitized = trace::sanitize(par_corpus, threads);
    std::ostringstream seq_clean, par_clean;
    trace::write_corpus(seq_clean, seq_sanitized.clean);
    trace::write_corpus(par_clean, par_sanitized.clean);
    EXPECT_EQ(seq_clean.str(), par_clean.str()) << label;
    EXPECT_EQ(seq_sanitized.stats.discarded_traces,
              par_sanitized.stats.discarded_traces) << label;
    EXPECT_EQ(seq_sanitized.stats.removed_ttl0_hops,
              par_sanitized.stats.removed_ttl0_hops) << label;
    EXPECT_EQ(seq_sanitized.stats.retained_addresses,
              par_sanitized.stats.retained_addresses) << label;

    const graph::InterfaceGraph par_graph(par_sanitized.clean, all_addresses,
                                          threads);
    ASSERT_EQ(seq_graph.half_count(), par_graph.half_count()) << label;
    for (graph::HalfId id = 0;
         id < static_cast<graph::HalfId>(seq_graph.half_count()); ++id) {
      ASSERT_EQ(seq_graph.address_at(id), par_graph.address_at(id)) << label;
      ASSERT_EQ(seq_graph.other_side_id(id), par_graph.other_side_id(id))
          << label;
      const auto seq_fwd = seq_graph.neighbor_ids(id);
      const auto par_fwd = par_graph.neighbor_ids(id);
      ASSERT_TRUE(std::equal(seq_fwd.begin(), seq_fwd.end(), par_fwd.begin(),
                             par_fwd.end()))
          << label << " neighbor span mismatch at id " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scales, EngineEquivalenceTest, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& param_info) {
      return param_info.param ? "Standard" : "Small";
    });

}  // namespace
}  // namespace mapit
