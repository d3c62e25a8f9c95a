// AS-level path annotation tests: the Fig 1 correction, attribution rules
// per inference kind/direction, and a corpus-level accuracy comparison
// against true router paths.
#include "core/as_path.h"

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "route/as_routing.h"
#include "route/forwarder.h"
#include "test_util.h"
#include "trace/trace_io.h"
#include "tracesim/simulator.h"

namespace mapit::core {
namespace {

using graph::Direction;
using testutil::MiniWorld;

TEST(RouterAttribution, PerKindAndDirection) {
  const net::Ipv4Address a = testutil::addr("1.2.3.4");
  // Forward direct: router in the dominating AS.
  EXPECT_EQ(router_attribution(
                {graph::forward_half(a), 200, 100, InferenceKind::kDirect,
                 false, 2, 2}),
            200u);
  // Backward direct: router stays in the address-owning AS.
  EXPECT_EQ(router_attribution(
                {graph::backward_half(a), 200, 100, InferenceKind::kDirect,
                 false, 2, 2}),
            100u);
  // Indirect mirrors invert their source.
  EXPECT_EQ(router_attribution(
                {graph::forward_half(a), 200, 100, InferenceKind::kIndirect,
                 false, 2, 2}),
            100u);
  EXPECT_EQ(router_attribution(
                {graph::backward_half(a), 200, 100, InferenceKind::kIndirect,
                 false, 2, 2}),
            200u);
  // Stub inferences behave like direct ones.
  EXPECT_EQ(router_attribution(
                {graph::forward_half(a), 1300, 1200, InferenceKind::kStub,
                 false, 1, 1}),
            1300u);
}

TEST(PathAnnotator, CorrectsTheFig1Mistake) {
  // 1.0.0.10 is announced by AS100 but sits on an AS200 router; the naive
  // AS path through it claims a false AS100 presence.
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {
                      "0|2.0.0.99|1.0.0.10 2.0.0.2",
                      "1|2.0.0.99|1.0.0.10 2.0.0.6",
                  });
  const Result result = world.run();
  const PathAnnotator annotator(result, world.ip2as());
  const trace::Trace probe =
      trace::parse_trace("0|2.0.0.99|1.0.0.10 2.0.0.2");
  const AnnotatedPath annotated = annotator.annotate(probe);

  EXPECT_EQ(annotated.naive_as_path, (std::vector<asdata::Asn>{100, 200}));
  EXPECT_EQ(annotated.as_path, (std::vector<asdata::Asn>{200}));
  ASSERT_EQ(annotated.hops.size(), 2u);
  EXPECT_EQ(annotated.hops[0].origin, 100u);
  EXPECT_EQ(annotated.hops[0].inferred, 200u);
  EXPECT_TRUE(annotated.hops[0].border);
  EXPECT_FALSE(annotated.hops[1].border);
}

TEST(PathAnnotator, SilentAndUnknownHops) {
  MiniWorld world({{"1.0.0.0/16", 100}},
                  {"0|9.9.9.9|1.0.0.1 1.0.0.2"});
  const Result result = world.run();
  const PathAnnotator annotator(result, world.ip2as());
  const trace::Trace probe =
      trace::parse_trace("0|9.9.9.9|1.0.0.1 * 66.0.0.1 1.0.0.2");
  const AnnotatedPath annotated = annotator.annotate(probe);
  ASSERT_EQ(annotated.hops.size(), 4u);
  EXPECT_FALSE(annotated.hops[1].address.has_value());
  EXPECT_EQ(annotated.hops[2].inferred, asdata::kUnknownAsn);
  // Unknown/silent hops are skipped, consecutive duplicates collapse.
  EXPECT_EQ(annotated.as_path, (std::vector<asdata::Asn>{100}));
}

TEST(PathAnnotator, BeatsNaiveMappingOnGeneratedCorpus) {
  // Corpus-level: compare both AS paths against the *true* router-path AS
  // sequence for a sample of clean traces. MAP-IT's annotation must make
  // strictly fewer mistakes than naive origin mapping.
  const auto experiment =
      eval::Experiment::build(eval::ExperimentConfig::small());
  const Result result = experiment->run_mapit({});
  const PathAnnotator annotator(result, experiment->ip2as());

  route::AsRouting routing(experiment->internet().true_relationships());
  route::Forwarder forwarder(experiment->internet(), routing);
  tracesim::TracerouteSimulator simulator(experiment->internet(), forwarder,
                                          experiment->config().simulation);

  std::size_t naive_correct = 0, inferred_correct = 0, compared = 0;
  for (std::size_t i = 0; i < experiment->corpus().size(); i += 37) {
    const trace::TraceRow t = experiment->corpus().traces()[i];
    // True AS sequence from the forwarding plane (skip artifact traces
    // where hops do not map to routers).
    const auto path =
        forwarder.path(simulator.monitors()[t.monitor].source_router,
                       t.destination, 0);
    if (path.empty()) continue;
    std::vector<asdata::Asn> truth;
    for (const route::RouterHop& hop : path) {
      const asdata::Asn owner =
          experiment->internet().router(hop.router).owner;
      if (truth.empty() || truth.back() != owner) truth.push_back(owner);
    }
    const AnnotatedPath annotated = annotator.annotate(t);
    ++compared;
    if (annotated.naive_as_path == truth) ++naive_correct;
    if (annotated.as_path == truth) ++inferred_correct;
  }
  ASSERT_GT(compared, 50u);
  EXPECT_GT(inferred_correct, naive_correct);
  // The corrected paths should match truth for a solid majority.
  EXPECT_GT(static_cast<double>(inferred_correct) /
                static_cast<double>(compared),
            0.6);
}

}  // namespace
}  // namespace mapit::core
