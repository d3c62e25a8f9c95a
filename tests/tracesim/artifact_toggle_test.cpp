// Artifact-toggle tests: each simulator artifact class demonstrably
// changes the emitted corpus, and disabling everything yields clean
// ingress-only traces.
#include <gtest/gtest.h>

#include "route/as_routing.h"
#include "route/forwarder.h"
#include "topo/generator.h"
#include "trace/sanitize.h"
#include "tracesim/simulator.h"

namespace mapit::tracesim {
namespace {

topo::GeneratorConfig clean_topology(std::uint64_t seed) {
  topo::GeneratorConfig c;
  c.seed = seed;
  c.tier1_count = 3;
  c.transit_count = 12;
  c.stub_count = 40;
  c.rne_customer_count = 6;
  c.nat_stub_prob = 0.0;
  c.buggy_router_prob = 0.0;
  c.egress_reply_router_prob = 0.0;
  c.router_silent_prob = 0.0;
  c.silent_border_as_prob = 0.0;
  return c;
}

SimulatorConfig quiet_sim() {
  SimulatorConfig c;
  c.seed = 77;
  c.monitor_count = 6;
  c.destinations_per_prefix = 1;
  c.hop_loss_prob = 0.0;
  c.per_packet_lb_prob = 0.0;
  c.route_flap_prob = 0.0;
  c.dest_reply_prob = 0.0;
  return c;
}

TEST(ArtifactToggles, CleanWorldEmitsPureIngressTraces) {
  const topo::Internet net = topo::Generator(clean_topology(21)).generate();
  route::AsRouting routing(net.true_relationships());
  route::Forwarder forwarder(net, routing);
  const TracerouteSimulator simulator(net, forwarder, quiet_sim());
  const trace::TraceCorpus corpus = simulator.run_campaign(nullptr);
  ASSERT_GT(corpus.size(), 100u);
  for (const trace::TraceRow t : corpus.traces()) {
    for (const trace::TraceHop& hop : t.hops) {
      // No silence, no quoted TTL 0, and every address is a real interface
      // reported by the router that owns it.
      ASSERT_TRUE(hop.responsive);
      EXPECT_NE(net.router_of_address(hop.address), topo::kNoRouter);
      EXPECT_FALSE(hop.quotes_ttl0());
    }
    EXPECT_FALSE(trace::has_interface_cycle(t));
  }
  const auto sanitized = trace::sanitize(corpus);
  EXPECT_EQ(sanitized.stats.discarded_traces, 0u);
  EXPECT_EQ(sanitized.stats.removed_ttl0_hops, 0u);
}

TEST(ArtifactToggles, EgressReplyRoutersChangeReportedAddresses) {
  topo::GeneratorConfig with_egress = clean_topology(21);
  with_egress.egress_reply_router_prob = 1.0;
  const topo::Internet baseline_net =
      topo::Generator(clean_topology(21)).generate();
  const topo::Internet egress_net = topo::Generator(with_egress).generate();
  // Same seed => same topology; only the behaviour flags differ.
  ASSERT_EQ(baseline_net.links().size(), egress_net.links().size());

  route::AsRouting routing_a(baseline_net.true_relationships());
  route::Forwarder forwarder_a(baseline_net, routing_a);
  route::AsRouting routing_b(egress_net.true_relationships());
  route::Forwarder forwarder_b(egress_net, routing_b);
  const trace::TraceCorpus clean =
      TracerouteSimulator(baseline_net, forwarder_a, quiet_sim())
          .run_campaign(nullptr);
  const trace::TraceCorpus egress =
      TracerouteSimulator(egress_net, forwarder_b, quiet_sim())
          .run_campaign(nullptr);
  ASSERT_EQ(clean.size(), egress.size());
  std::size_t differing_hops = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const auto a = clean.traces()[i].hops;
    const auto b = egress.traces()[i].hops;
    for (std::size_t h = 0; h < std::min(a.size(), b.size()); ++h) {
      if (a[h].address != b[h].address) ++differing_hops;
    }
  }
  EXPECT_GT(differing_hops, 10u)
      << "egress-reply routers should surface different source addresses";
}

TEST(ArtifactToggles, LossKnobControlsSilence) {
  const topo::Internet net = topo::Generator(clean_topology(22)).generate();
  route::AsRouting routing(net.true_relationships());
  route::Forwarder forwarder(net, routing);
  SimulatorConfig lossy = quiet_sim();
  lossy.hop_loss_prob = 0.5;
  const trace::TraceCorpus corpus =
      TracerouteSimulator(net, forwarder, lossy).run_campaign(nullptr);
  std::size_t total = 0, silent = 0;
  for (const trace::TraceRow t : corpus.traces()) {
    for (const trace::TraceHop& hop : t.hops) {
      ++total;
      if (!hop.responsive) ++silent;
    }
  }
  const double fraction =
      static_cast<double>(silent) / static_cast<double>(total);
  EXPECT_NEAR(fraction, 0.5, 0.05);
}

TEST(ArtifactToggles, FlapKnobProducesCycles) {
  const topo::Internet net = topo::Generator(clean_topology(23)).generate();
  route::AsRouting routing(net.true_relationships());
  route::Forwarder forwarder(net, routing);
  SimulatorConfig flappy = quiet_sim();
  flappy.route_flap_prob = 0.5;
  SimulatorStats stats;
  const trace::TraceCorpus corpus =
      TracerouteSimulator(net, forwarder, flappy).run_campaign(&stats);
  EXPECT_GT(stats.flapped_traces, 0u);
  EXPECT_GT(trace::sanitize(corpus).stats.discarded_traces, 0u);
}

TEST(ArtifactToggles, DestinationEchoKnob) {
  const topo::Internet net = topo::Generator(clean_topology(24)).generate();
  route::AsRouting routing(net.true_relationships());
  route::Forwarder forwarder(net, routing);
  SimulatorConfig echo = quiet_sim();
  echo.dest_reply_prob = 1.0;
  const trace::TraceCorpus corpus =
      TracerouteSimulator(net, forwarder, echo).run_campaign(nullptr);
  std::size_t echoes = 0;
  for (const trace::TraceRow t : corpus.traces()) {
    if (!t.hops.empty() && t.hops.back().responsive &&
        t.hops.back().address == t.destination) ++echoes;
  }
  // Every complete trace ends with the destination answering.
  EXPECT_GT(echoes, corpus.size() / 2);
}

}  // namespace
}  // namespace mapit::tracesim
