// Traceroute simulator tests: determinism, hop/address semantics, and each
// artifact class (silence, NAT stubs, TTL-forwarding bugs, egress replies,
// load balancing / flaps).
#include "tracesim/simulator.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "route/as_routing.h"
#include "route/forwarder.h"
#include "topo/generator.h"
#include "trace/sanitize.h"

namespace mapit::tracesim {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  static topo::GeneratorConfig topo_config() {
    topo::GeneratorConfig c;
    c.seed = 11;
    c.tier1_count = 3;
    c.transit_count = 15;
    c.stub_count = 60;
    c.rne_customer_count = 8;
    c.nat_stub_prob = 0.3;          // make NAT stubs plentiful for testing
    c.buggy_router_prob = 0.05;     // same for buggy routers
    c.egress_reply_router_prob = 0.1;
    return c;
  }

  static SimulatorConfig sim_config() {
    SimulatorConfig c;
    c.seed = 23;
    c.monitor_count = 8;
    c.destinations_per_prefix = 1;
    return c;
  }

  SimulatorTest()
      : net_(topo::Generator(topo_config()).generate()),
        routing_(net_.true_relationships()),
        forwarder_(net_, routing_),
        simulator_(net_, forwarder_, sim_config()) {}

  topo::Internet net_;
  route::AsRouting routing_;
  route::Forwarder forwarder_;
  TracerouteSimulator simulator_;
};

TEST_F(SimulatorTest, MonitorPlacement) {
  ASSERT_EQ(simulator_.monitors().size(), 8u);
  std::unordered_set<asdata::Asn> hosts;
  for (const Monitor& monitor : simulator_.monitors()) {
    EXPECT_NE(monitor.source_router, topo::kNoRouter);
    EXPECT_EQ(net_.router(monitor.source_router).owner, monitor.asn);
    EXPECT_FALSE(net_.as_info(monitor.asn).nat_stub);
    hosts.insert(monitor.asn);
  }
  EXPECT_EQ(hosts.size(), 8u);  // distinct vantage ASes
  // The R&E network hosts the first monitor (§5.1's setup).
  EXPECT_EQ(simulator_.monitors().front().asn, topo::Generator::rne_asn());
}

TEST_F(SimulatorTest, ProbeIsDeterministic) {
  const Monitor& monitor = simulator_.monitors().front();
  const auto destinations = net_.probe_destinations(1, 3);
  for (std::size_t i = 0; i < destinations.size(); i += 20) {
    EXPECT_EQ(simulator_.probe(monitor, destinations[i]),
              simulator_.probe(monitor, destinations[i]));
  }
}

TEST_F(SimulatorTest, ProbeTtlsAreSequential) {
  const Monitor& monitor = simulator_.monitors().front();
  const auto destinations = net_.probe_destinations(1, 3);
  for (std::size_t i = 0; i < destinations.size(); i += 9) {
    const trace::Trace t = simulator_.probe(monitor, destinations[i]);
    for (std::size_t h = 0; h < t.hops.size(); ++h) {
      EXPECT_EQ(t.hops[h].probe_ttl, h + 1);
    }
  }
}

TEST_F(SimulatorTest, ReportedAddressesAreIngressInterfaces) {
  // Without artifacts, a responding hop reports the ingress interface of
  // the traversed router. Verify reported addresses belong to routers on
  // the true forwarding path.
  const Monitor& monitor = simulator_.monitors().front();
  const auto destinations = net_.probe_destinations(1, 3);
  int checked = 0;
  for (std::size_t i = 0; i < destinations.size() && checked < 200; ++i) {
    const trace::Trace t = simulator_.probe(monitor, destinations[i]);
    for (const trace::TraceHop& hop : t.hops) {
      if (!hop.responsive) continue;
      const topo::RouterId router = net_.router_of_address(hop.address);
      if (router == topo::kNoRouter) continue;  // NAT address or dest echo
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST_F(SimulatorTest, NatStubsAnswerWithTheirNatAddress) {
  // Find a NAT stub and probe an address inside it.
  const topo::AsInfo* nat_stub = nullptr;
  for (const topo::AsInfo& info : net_.ases()) {
    if (info.nat_stub) {
      nat_stub = &info;
      break;
    }
  }
  ASSERT_NE(nat_stub, nullptr) << "config should create NAT stubs";
  const net::Ipv4Address destination(
      nat_stub->announced.front().network().value() + 99);
  bool saw_nat_address = false;
  for (const Monitor& monitor : simulator_.monitors()) {
    const trace::Trace t = simulator_.probe(monitor, destination);
    for (const trace::TraceHop& hop : t.hops) {
      if (!hop.responsive) continue;
      const topo::RouterId router = net_.router_of_address(hop.address);
      if (router != topo::kNoRouter &&
          net_.router(router).owner == nat_stub->asn) {
        FAIL() << "NAT stub leaked a real interface " << hop.address;
      }
      if (hop.address == *nat_stub->nat_address) saw_nat_address = true;
    }
  }
  EXPECT_TRUE(saw_nat_address);
}

TEST_F(SimulatorTest, BuggyRoutersProduceQuotedTtl0) {
  SimulatorStats stats;
  const trace::TraceCorpus corpus = simulator_.run_campaign(&stats);
  std::size_t quoted0 = 0;
  for (const trace::TraceRow t : corpus.traces()) {
    for (const trace::TraceHop& hop : t.hops) {
      if (hop.responsive && hop.quoted && hop.quoted_ttl == 0) ++quoted0;
    }
  }
  EXPECT_GT(quoted0, 0u) << "buggy routers should surface quoted TTL 0";
  // And sanitization removes exactly those hops.
  const auto sanitized = trace::sanitize(corpus);
  EXPECT_EQ(sanitized.stats.removed_ttl0_hops, quoted0);
}

TEST_F(SimulatorTest, CampaignHasUnresponsiveHops) {
  const trace::TraceCorpus corpus = simulator_.run_campaign(nullptr);
  std::size_t nulls = 0;
  for (const trace::TraceRow t : corpus.traces()) {
    for (const trace::TraceHop& hop : t.hops) {
      if (!hop.responsive) ++nulls;
    }
  }
  EXPECT_GT(nulls, 0u);
}

TEST_F(SimulatorTest, CampaignProducesCyclesForSanitizerToDiscard) {
  const trace::TraceCorpus corpus = simulator_.run_campaign(nullptr);
  const auto sanitized = trace::sanitize(corpus);
  EXPECT_GT(sanitized.stats.discarded_traces, 0u);
  // The discard rate stays moderate (the paper reports 2.7%).
  EXPECT_LT(sanitized.stats.discard_fraction(), 0.15);
}

TEST_F(SimulatorTest, CampaignIsDeterministic) {
  SimulatorStats s1, s2;
  const trace::TraceCorpus c1 = simulator_.run_campaign(&s1);
  const trace::TraceCorpus c2 = simulator_.run_campaign(&s2);
  ASSERT_EQ(c1.size(), c2.size());
  EXPECT_EQ(s1.traces, s2.traces);
  EXPECT_EQ(s1.lb_traces, s2.lb_traces);
  for (std::size_t i = 0; i < c1.size(); i += 101) {
    EXPECT_EQ(c1.traces()[i], c2.traces()[i]);
  }
}

TEST_F(SimulatorTest, StatsAccounting) {
  SimulatorStats stats;
  const trace::TraceCorpus corpus = simulator_.run_campaign(&stats);
  EXPECT_EQ(stats.traces, corpus.size());
  EXPECT_GT(stats.lb_traces + stats.flapped_traces, 0u);
}

TEST_F(SimulatorTest, MaxTtlTruncatesTraces) {
  SimulatorConfig config = sim_config();
  config.max_ttl = 3;
  const TracerouteSimulator truncated(net_, forwarder_, config);
  const auto destinations = net_.probe_destinations(1, 3);
  for (std::size_t i = 0; i < destinations.size(); i += 25) {
    const trace::Trace t =
        truncated.probe(truncated.monitors().front(), destinations[i]);
    EXPECT_LE(t.hops.size(), 4u);  // 3 hops + optional destination echo
  }
}

}  // namespace
}  // namespace mapit::tracesim
