// Verification-rule tests (§5.2): each TP/FP/FN accounting rule is
// exercised with crafted claim sets against a small experiment's truth.
#include "eval/evaluator.h"

#include <gtest/gtest.h>

#include "eval/experiment.h"

namespace mapit::eval {
namespace {

using baselines::Claim;
using baselines::Claims;
using baselines::make_claim;

class EvaluatorTest : public ::testing::Test {
 protected:
  static const Experiment& experiment() {
    static const auto instance =
        Experiment::build(ExperimentConfig::small());
    return *instance;
  }

  static asdata::Asn target() { return topo::Generator::rne_asn(); }

  /// An eligible link of the exact ground truth (one must exist).
  static LinkTruth some_eligible_link(const AsGroundTruth& gt) {
    // Empty claims: every eligible link shows up as a false negative.
    const Verification v = experiment().evaluator().verify(gt, {});
    EXPECT_GT(v.total.fn, 0u);
    return v.false_negatives.front();
  }
};

TEST_F(EvaluatorTest, EmptyClaimsYieldOnlyFalseNegatives) {
  const AsGroundTruth gt = experiment().ground_truth(target());
  const Verification v = experiment().evaluator().verify(gt, {});
  EXPECT_EQ(v.total.tp, 0u);
  EXPECT_EQ(v.total.fp, 0u);
  EXPECT_GT(v.total.fn, 0u);
  EXPECT_LE(v.total.fn, gt.links().size());
  EXPECT_EQ(v.total.precision(), 1.0);  // vacuous
  EXPECT_EQ(v.total.recall(), 0.0);
}

TEST_F(EvaluatorTest, CorrectClaimCountsTheLinkOnce) {
  const AsGroundTruth gt = experiment().ground_truth(target());
  const LinkTruth link = some_eligible_link(gt);
  // Claims on both endpoints of the same link: one TP, not two.
  const Claims claims = {
      make_claim(link.addr_a, target(), link.recorded_remote),
      make_claim(link.addr_b, target(), link.recorded_remote),
  };
  const Verification v = experiment().evaluator().verify(gt, claims);
  EXPECT_EQ(v.total.tp, 1u);
  EXPECT_EQ(v.total.fp, 0u);
}

TEST_F(EvaluatorTest, WrongPairOnLinkAddressIsError) {
  const AsGroundTruth gt = experiment().ground_truth(target());
  const LinkTruth link = some_eligible_link(gt);
  const Claims claims = {
      make_claim(link.addr_a, target(), 424242),  // nobody's sibling
  };
  const Verification v = experiment().evaluator().verify(gt, claims);
  EXPECT_EQ(v.total.tp, 0u);
  EXPECT_EQ(v.total.fp, 1u);
}

TEST_F(EvaluatorTest, InternalInterfaceClaimIsError) {
  const AsGroundTruth gt = experiment().ground_truth(target());
  ASSERT_FALSE(gt.internal().empty());
  const net::Ipv4Address internal = *gt.internal().begin();
  const Claims claims = {make_claim(internal, target(), 424242)};
  const Verification v = experiment().evaluator().verify(gt, claims);
  EXPECT_EQ(v.total.fp, 1u);
}

TEST_F(EvaluatorTest, ExactTruthFlagsOffDatasetClaims) {
  const AsGroundTruth gt = experiment().ground_truth(target());
  ASSERT_TRUE(gt.is_exact());
  // A target-involving claim on an address the inventory does not know.
  const Claims claims = {
      make_claim(net::Ipv4Address(203, 99, 99, 99), target(), 424242)};
  const Verification v = experiment().evaluator().verify(gt, claims);
  EXPECT_EQ(v.total.fp, 1u);
}

TEST_F(EvaluatorTest, ApproximateTruthIgnoresUnverifiableClaims) {
  const asdata::Asn tier1 = topo::Generator::tier1_a();
  const AsGroundTruth gt = experiment().ground_truth(tier1);
  ASSERT_FALSE(gt.is_exact());
  // Same off-dataset shape as above: with hostname-derived truth this is
  // unverifiable and must NOT count as an error (§5.2).
  const Claims claims = {
      make_claim(net::Ipv4Address(203, 99, 99, 99), tier1, 424242)};
  const Verification v = experiment().evaluator().verify(gt, claims);
  EXPECT_EQ(v.total.fp, 0u);
}

TEST_F(EvaluatorTest, ApproximateTruthFlagsAdjacentSamePairClaims) {
  // §5.2: for hostname-derived truth, a claim naming a dataset link's pair
  // but made on an interface *adjacent to* that link is a verifiable error
  // ("inferences ... made on an adjacent interface in the connected AS").
  const asdata::Asn tier1 = topo::Generator::tier1_a();
  const AsGroundTruth gt = experiment().ground_truth(tier1);
  // Find a dataset link whose target-side address has a graph neighbour
  // that is itself off-dataset.
  for (const LinkTruth& link : gt.links()) {
    for (const net::Ipv4Address endpoint : {link.addr_a, link.addr_b}) {
      const graph::InterfaceGraph& graph = experiment().graph();
      const graph::HalfId record = graph.half_id(graph::forward_half(endpoint));
      if (record >= graph.record_half_count()) continue;
      for (const graph::HalfId half : {record, record + 1}) {
        for (const graph::HalfId id : graph.neighbor_ids(half)) {
          const net::Ipv4Address neighbor = graph.address_at(id);
          if (gt.link_of(neighbor) != nullptr) continue;
          if (gt.internal().contains(neighbor)) continue;
          // A claim on this adjacent interface naming the link's pair.
          const Claims claims = {
              make_claim(neighbor, tier1, link.recorded_remote)};
          const Verification v = experiment().evaluator().verify(gt, claims);
          EXPECT_EQ(v.total.fp, 1u)
              << neighbor.to_string() << " adjacent to "
              << endpoint.to_string();
          return;  // one verified instance suffices
        }
      }
    }
  }
  GTEST_SKIP() << "no suitable adjacent interface in this corpus";
}

TEST_F(EvaluatorTest, ClaimsNotInvolvingTargetAreOutOfScope) {
  const AsGroundTruth gt = experiment().ground_truth(target());
  const Claims claims = {
      make_claim(net::Ipv4Address(203, 99, 99, 99), 424242, 535353)};
  const Verification v = experiment().evaluator().verify(gt, claims);
  EXPECT_EQ(v.total.fp, 0u);
  EXPECT_EQ(v.total.tp, 0u);
}

TEST_F(EvaluatorTest, ByClassBucketsSumToTotal) {
  const AsGroundTruth gt = experiment().ground_truth(target());
  const auto result = experiment().run_mapit({});
  const Verification v = experiment().evaluator().verify(
      gt, baselines::claims_from_result(result));
  Metrics sum;
  for (const auto& [cls, metrics] : v.by_class) sum += metrics;
  EXPECT_EQ(sum.tp, v.total.tp);
  EXPECT_EQ(sum.fp, v.total.fp);
  EXPECT_EQ(sum.fn, v.total.fn);
}

TEST_F(EvaluatorTest, FalseNegativesRequireEligibility) {
  // Links with no endpoint in the traces are not counted missing.
  const AsGroundTruth gt = experiment().ground_truth(target());
  const Verification v = experiment().evaluator().verify(gt, {});
  for (const LinkTruth& missing : v.false_negatives) {
    const graph::InterfaceGraph& graph = experiment().graph();
    const bool a_seen = graph.half_id(graph::forward_half(missing.addr_a)) <
                        graph.record_half_count();
    const bool b_seen = graph.half_id(graph::forward_half(missing.addr_b)) <
                        graph.record_half_count();
    EXPECT_TRUE(a_seen || b_seen);
  }
}

TEST(MetricsTest, PrecisionRecallEdgeCases) {
  Metrics m;
  EXPECT_EQ(m.precision(), 1.0);
  EXPECT_EQ(m.recall(), 1.0);
  m.tp = 3;
  m.fp = 1;
  m.fn = 2;
  EXPECT_NEAR(m.precision(), 0.75, 1e-12);
  EXPECT_NEAR(m.recall(), 0.6, 1e-12);
  Metrics other;
  other.tp = 1;
  m += other;
  EXPECT_EQ(m.tp, 4u);
}

}  // namespace
}  // namespace mapit::eval
