#include "tracesim/simulator.h"

#include <algorithm>
#include <limits>

#include "net/error.h"

namespace mapit::tracesim {

namespace {

[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

TracerouteSimulator::TracerouteSimulator(const topo::Internet& net,
                                         const route::Forwarder& forwarder,
                                         SimulatorConfig config)
    : net_(net), forwarder_(forwarder), config_(config) {
  MAPIT_ENSURE(config_.monitor_count > 0, "need at least one monitor");
  // Deterministic placement: walk transit then stub ASes with a fixed
  // stride so monitors spread across the hierarchy (like Ark's mix of
  // academic and commodity vantage points). The designated R&E AS hosts
  // the first monitor, mirroring §5.1's "only one [verified network] has a
  // monitor".
  std::vector<const topo::AsInfo*> candidates;
  for (const topo::AsInfo& info : net_.ases()) {
    if (info.tier == topo::AsTier::kTransit && !info.nat_stub) {
      candidates.push_back(&info);
    }
  }
  for (const topo::AsInfo& info : net_.ases()) {
    if (info.tier == topo::AsTier::kStub && !info.nat_stub) {
      candidates.push_back(&info);
    }
  }
  MAPIT_ENSURE(!candidates.empty(), "no monitor-capable ASes");
  const std::size_t stride =
      std::max<std::size_t>(1, candidates.size() /
                                   static_cast<std::size_t>(config_.monitor_count));
  for (int i = 0;
       i < config_.monitor_count &&
       static_cast<std::size_t>(i) * stride < candidates.size();
       ++i) {
    const topo::AsInfo* info = candidates[static_cast<std::size_t>(i) * stride];
    Monitor monitor;
    monitor.id = static_cast<trace::MonitorId>(i);
    monitor.asn = info->asn;
    monitor.source_router = info->routers.front();
    monitors_.push_back(monitor);
  }
}

net::Ipv4Address TracerouteSimulator::router_address(
    topo::RouterId router) const {
  // Stable "router address": the lowest interface address assigned to it.
  net::Ipv4Address best(std::numeric_limits<std::uint32_t>::max());
  for (topo::LinkId id : net_.router(router).links) {
    const net::Ipv4Address address = net_.link(id).address_on(router);
    best = std::min(best, address);
  }
  return best;
}

net::Ipv4Address TracerouteSimulator::reply_egress_address(
    topo::RouterId router, const Monitor& monitor) const {
  // The router sources its ICMP reply from the egress interface of the
  // path *back to the monitor* — the third-party-address mechanism (Fig 4).
  const net::Ipv4Address monitor_address =
      router_address(monitor.source_router);
  const std::vector<route::RouterHop> reply =
      forwarder_.path(router, monitor_address, /*variant=*/0);
  if (reply.size() < 2 || reply[1].in_link == topo::kNoLink) {
    return router_address(router);
  }
  return net_.link(reply[1].in_link).address_on(router);
}

std::vector<route::RouterHop> TracerouteSimulator::hop_sequence(
    topo::RouterId source, net::Ipv4Address destination, std::mt19937_64& rng,
    SimulatorStats* stats) const {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const std::vector<route::RouterHop> primary =
      forwarder_.path(source, destination, /*variant=*/0);
  if (primary.empty()) return {};

  if (coin(rng) < config_.per_packet_lb_prob) {
    // Per-packet load balancing: each probe may take either of two
    // equal-preference forwarding decisions, so the reported hop at a given
    // TTL alternates between the two paths.
    const std::vector<route::RouterHop> alternate =
        forwarder_.path(source, destination, /*variant=*/1);
    if (!alternate.empty() && alternate != primary) {
      if (stats != nullptr) ++stats->lb_traces;
      std::vector<route::RouterHop> mixed;
      const std::size_t length = std::max(primary.size(), alternate.size());
      for (std::size_t i = 0; i < length; ++i) {
        const auto& pick = coin(rng) < 0.5 ? primary : alternate;
        if (i < pick.size()) {
          mixed.push_back(pick[i]);
        } else {
          const auto& other = &pick == &primary ? alternate : primary;
          if (i < other.size()) mixed.push_back(other[i]);
        }
      }
      return mixed;
    }
  }

  if (coin(rng) < config_.route_flap_prob && primary.size() > 2) {
    // Transient route change: the route shifts to a different egress
    // tie-break mid-trace; later probes follow the new path from their TTL
    // onward, which can repeat earlier routers (interface cycles).
    const std::vector<route::RouterHop> after =
        forwarder_.path(source, destination, /*variant=*/2);
    if (!after.empty() && after != primary) {
      if (stats != nullptr) ++stats->flapped_traces;
      std::uniform_int_distribution<std::size_t> cut_dist(1,
                                                          primary.size() - 1);
      const std::size_t cut = cut_dist(rng);
      std::vector<route::RouterHop> spliced(primary.begin(),
                                            primary.begin() +
                                                static_cast<std::ptrdiff_t>(cut));
      // Resume on the new path two hops *earlier* than the cut so a router
      // already reported can reappear with a different hop between — an
      // interface cycle, matching how flaps pollute real traces.
      const std::size_t resume = cut >= 2 ? cut - 2 : cut;
      for (std::size_t i = std::min(resume, after.size()); i < after.size();
           ++i) {
        spliced.push_back(after[i]);
      }
      return spliced;
    }
  }

  return primary;
}

trace::Trace TracerouteSimulator::probe(const Monitor& monitor,
                                        net::Ipv4Address destination,
                                        SimulatorStats* stats) const {
  std::mt19937_64 rng(mix(config_.seed ^ mix(monitor.id + 1) ^
                          mix(destination.value())));
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  trace::Trace out;
  out.monitor = monitor.id;
  out.destination = destination;

  const std::vector<route::RouterHop> hops =
      hop_sequence(monitor.source_router, destination, rng, stats);
  if (hops.empty()) return out;

  const std::size_t limit =
      std::min<std::size_t>(hops.size(), config_.max_ttl);
  for (std::size_t i = 0; i < limit; ++i) {
    const route::RouterHop& hop = hops[i];
    const topo::Router& router = net_.router(hop.router);
    const topo::AsInfo& owner = net_.as_info(router.owner);
    const auto ttl = static_cast<std::uint8_t>(i + 1);

    // Buggy routers forward TTL=1 probes; the *next* router answers,
    // quoting TTL 0 (§4.1).
    if (router.buggy_ttl_forwarder) {
      if (i + 1 < hops.size()) {
        const route::RouterHop& next = hops[i + 1];
        const topo::Router& next_router = net_.router(next.router);
        net::Ipv4Address address =
            next.in_link != topo::kNoLink
                ? net_.link(next.in_link).address_on(next.router)
                : router_address(next.router);
        // NAT stubs mask even these replies.
        const topo::AsInfo& next_owner = net_.as_info(next_router.owner);
        if (next_owner.nat_stub && next_owner.nat_address) {
          address = *next_owner.nat_address;
        }
        out.hops.push_back(trace::TraceHop::reply(ttl, address, 0));
      } else {
        out.hops.push_back(trace::TraceHop::silent(ttl));
      }
      continue;
    }

    // Silent cases.
    const bool silenced_border = owner.border_replies_disabled && router.border;
    if (silenced_border || coin(rng) >= router.reply_probability ||
        coin(rng) < config_.hop_loss_prob) {
      out.hops.push_back(trace::TraceHop::silent(ttl));  // '*'
      continue;
    }

    if (owner.nat_stub && owner.nat_address) {
      out.hops.push_back(trace::TraceHop::reply(ttl, *owner.nat_address, 1));
      continue;
    }

    net::Ipv4Address address;
    if (router.replies_with_egress) {
      address = reply_egress_address(hop.router, monitor);
    } else if (hop.in_link != topo::kNoLink) {
      address = net_.link(hop.in_link).address_on(hop.router);
    } else {
      address = router_address(hop.router);
    }
    out.hops.push_back(trace::TraceHop::reply(ttl, address, 1));
  }

  // Destination echo reply. A host behind a NAT'd stub answers from the
  // stub's NAT address, not its internal one.
  if (limit == hops.size() && coin(rng) < config_.dest_reply_prob) {
    net::Ipv4Address address = destination;
    const asdata::Asn dest_as = forwarder_.true_origin(destination);
    if (dest_as != asdata::kUnknownAsn) {
      const topo::AsInfo& owner = net_.as_info(dest_as);
      if (owner.nat_stub && owner.nat_address) address = *owner.nat_address;
    }
    out.hops.push_back(
        trace::TraceHop::reply(static_cast<std::uint8_t>(limit + 1), address));
  }
  return out;
}

trace::TraceCorpus TracerouteSimulator::run_campaign(
    SimulatorStats* stats) const {
  SimulatorStats local;
  trace::TraceCorpus corpus;
  const std::vector<net::Ipv4Address> destinations =
      net_.probe_destinations(config_.destinations_per_prefix,
                              config_.seed ^ 0xD05ULL);
  for (const Monitor& monitor : monitors_) {
    for (net::Ipv4Address destination : destinations) {
      trace::Trace t = probe(monitor, destination, &local);
      if (t.hops.empty()) {
        ++local.unreachable;
        continue;
      }
      ++local.traces;
      corpus.add(std::move(t));
    }
  }
  if (stats != nullptr) *stats = local;
  return corpus;
}

}  // namespace mapit::tracesim
