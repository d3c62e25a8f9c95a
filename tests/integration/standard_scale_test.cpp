// Standard-scale regression pins: the EXPERIMENTS.md headline numbers are
// asserted here so any algorithm or substrate change that shifts the
// paper-shape results is caught in CI, not discovered in a bench run.
//
// These run the bench-scale configuration (~80k traces); the whole file
// costs a few seconds.
#include <gtest/gtest.h>

#include "baselines/claims.h"
#include "baselines/simple.h"
#include "eval/experiment.h"
#include "store/format.h"
#include "store/writer.h"

namespace mapit {
namespace {

class StandardScaleTest : public ::testing::Test {
 protected:
  static const eval::Experiment& experiment() {
    static const auto instance =
        eval::Experiment::build(eval::ExperimentConfig::standard());
    return *instance;
  }

  static const core::Result& result() {
    static const core::Result r = [] {
      core::Options options;
      options.f = 0.5;
      return experiment().run_mapit(options);
    }();
    return r;
  }

  static eval::Metrics verify(asdata::Asn target) {
    const baselines::Claims claims = baselines::claims_from_result(result());
    const eval::AsGroundTruth truth = experiment().ground_truth(target);
    return experiment().evaluator().verify(truth, claims).total;
  }
};

TEST_F(StandardScaleTest, ExactTruthNetworkAtPaperOperatingPoint) {
  // Paper Table 1: I2 at 100.0% precision / 96.9% recall.
  const eval::Metrics metrics = verify(topo::Generator::rne_asn());
  EXPECT_EQ(metrics.fp, 0u) << "I2 precision must stay at 100%";
  EXPECT_GE(metrics.recall(), 0.90);
}

TEST_F(StandardScaleTest, Tier1NetworksInPaperBand) {
  for (asdata::Asn target :
       {topo::Generator::tier1_a(), topo::Generator::tier1_b()}) {
    const eval::Metrics metrics = verify(target);
    EXPECT_GE(metrics.precision(), 0.94) << "AS" << target;
    EXPECT_GE(metrics.recall(), 0.85) << "AS" << target;
  }
}

TEST_F(StandardScaleTest, CorpusStatisticsStayInBand) {
  const trace::SanitizeStats& ss = experiment().sanitize_stats();
  EXPECT_GT(ss.discard_fraction(), 0.001);  // artifacts exist (paper: 2.7%)
  EXPECT_LT(ss.discard_fraction(), 0.10);
  const graph::GraphStats gs = experiment().graph().stats();
  EXPECT_NEAR(gs.slash31_fraction, 0.40, 0.08);  // paper: 40.4%
  EXPECT_LT(gs.overlap_fraction(), 0.02);        // paper: 0.3%
}

TEST_F(StandardScaleTest, ConvergesLikeThePaper) {
  // Paper §4.6: convergence after 3 iterations of the main loop.
  EXPECT_TRUE(result().stats.converged);
  EXPECT_LE(result().stats.iterations, 5);
}

TEST_F(StandardScaleTest, SimpleHeuristicStaysFarBehind) {
  const baselines::Claims simple =
      baselines::simple_heuristic(experiment().corpus(), experiment().ip2as());
  for (asdata::Asn target : eval::Experiment::evaluation_targets()) {
    const eval::AsGroundTruth truth = experiment().ground_truth(target);
    const double baseline_precision =
        experiment().evaluator().verify(truth, simple).total.precision();
    const double ours = verify(target).precision();
    EXPECT_GT(ours, baseline_precision + 0.3) << "AS" << target;
  }
}

TEST_F(StandardScaleTest, SnapshotBytesArePinned) {
  // The standard experiment's snapshot under default options, at two
  // thread counts: any drift in trace, graph, engine or store output
  // moves these numbers.
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    core::Options options;
    options.threads = threads;
    const core::Result run = experiment().run_mapit(options);
    EXPECT_EQ(run.inferences.size(), 3633u);
    const std::string bytes = store::serialize_snapshot(store::make_snapshot_data(
        run, experiment().graph(), experiment().ip2as()));
    EXPECT_EQ(bytes.size(), 200980u);
    constexpr std::size_t kHeader = sizeof(store::SnapshotHeader);
    ASSERT_GT(bytes.size(), kHeader);
    EXPECT_EQ(store::crc32(bytes.data() + kHeader, bytes.size() - kHeader),
              0xa7e566b3u);
  }
}

TEST_F(StandardScaleTest, UncertainListStaysSmall) {
  // Paper §4.4.4: "a much smaller list of uncertain inferences".
  EXPECT_LT(result().uncertain.size(), result().inferences.size() / 10 + 5);
}

}  // namespace
}  // namespace mapit
