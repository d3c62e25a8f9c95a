#include "baselines/bdrmap_lite.h"

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "net/point_to_point.h"

namespace mapit::baselines {

namespace {

/// Memoized customer-cone membership: is `asn` inside `root`'s cone?
class CustomerCone {
 public:
  explicit CustomerCone(const asdata::AsRelationships& relationships)
      : rels_(relationships) {}

  [[nodiscard]] bool contains(asdata::Asn root, asdata::Asn asn) {
    if (root == asn) return true;
    return cone_of(root).contains(asn);
  }

 private:
  const std::unordered_set<asdata::Asn>& cone_of(asdata::Asn root) {
    auto it = cache_.find(root);
    if (it != cache_.end()) return it->second;
    std::unordered_set<asdata::Asn> cone;
    std::vector<asdata::Asn> stack{root};
    cone.insert(root);
    while (!stack.empty()) {
      const asdata::Asn current = stack.back();
      stack.pop_back();
      for (asdata::Asn customer : rels_.customers_of(current)) {
        if (cone.insert(customer).second) stack.push_back(customer);
      }
    }
    return cache_.emplace(root, std::move(cone)).first->second;
  }

  const asdata::AsRelationships& rels_;
  std::unordered_map<asdata::Asn, std::unordered_set<asdata::Asn>> cache_;
};

struct Candidate {
  net::Ipv4Address last_in;    // last interface mapped to the host network
  net::Ipv4Address first_out;  // first interface beyond it
  asdata::Asn neighbor;

  friend auto operator<=>(const Candidate&, const Candidate&) = default;
};

}  // namespace

Claims bdrmap_lite(const trace::TraceCorpus& corpus,
                   const std::vector<trace::MonitorId>& host_monitors,
                   asdata::Asn host_network, const bgp::Ip2As& ip2as,
                   const asdata::AsRelationships& relationships,
                   const asdata::As2Org& orgs, const BdrmapConfig& config) {
  const std::unordered_set<trace::MonitorId> monitors(host_monitors.begin(),
                                                      host_monitors.end());
  CustomerCone cone(relationships);

  // Candidate -> distinct (monitor, destination) observations.
  std::map<Candidate,
           std::set<std::pair<trace::MonitorId, net::Ipv4Address>>>
      observations;
  // For every host-space address: the distinct successors seen after it,
  // split into host-space and per-foreign-AS buckets. This is the passive
  // stand-in for bdrmap's alias resolution of the far router: a host-space
  // ingress whose successors fan out into several addresses of a single
  // foreign AS sits on that neighbour's router (host-named border link).
  struct Successors {
    std::unordered_set<net::Ipv4Address> host;
    std::unordered_map<asdata::Asn, std::unordered_set<net::Ipv4Address>>
        foreign;
  };
  std::unordered_map<net::Ipv4Address, Successors> successors;

  for (const trace::TraceRow trace : corpus.traces()) {
    if (!monitors.contains(trace.monitor)) continue;
    const asdata::Asn dest_as = ip2as.origin(trace.destination);

    // Walk outward: find every host->foreign transition on consecutive
    // responsive hops (bdrmap's last-hop detection; there can be more than
    // one when a path re-enters the host network, each is a candidate).
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      const trace::TraceHop& a = trace.hops[i];
      const trace::TraceHop& b = trace.hops[i + 1];
      if (!a.responsive || !b.responsive) continue;
      if (b.probe_ttl != a.probe_ttl + 1) continue;
      const asdata::Asn as_a = ip2as.origin(a.address);
      const asdata::Asn as_b = ip2as.origin(b.address);
      if (!orgs.are_siblings(as_a, host_network)) continue;
      if (orgs.are_siblings(as_b, host_network)) {
        successors[a.address].host.insert(b.address);
        continue;
      }
      if (as_b == asdata::kUnknownAsn) continue;
      successors[a.address].foreign[as_b].insert(b.address);

      // Cone consistency (bdrmap's defence against third-party addresses):
      // the probe's destination must plausibly route through this
      // neighbour. Providers announce everything; customers and peers only
      // their customer cones.
      if (config.require_cone_consistency &&
          dest_as != asdata::kUnknownAsn &&
          relationships.relationship(host_network, as_b) !=
              asdata::Relationship::kCustomer) {  // as_b is not our provider
        if (!cone.contains(as_b, dest_as)) continue;
      }

      observations[Candidate{a.address, b.address, as_b}].emplace(
          trace.monitor, trace.destination);
    }
  }

  // Interface-level reading of bdrmap's router-level borders. For each
  // accepted transition point (last host-space address):
  //  (a) a transition straddling one /30 names both link interfaces;
  //  (b) a host-space address that never precedes other host-space
  //      addresses but fans into >=2 foreign successors sits on the
  //      *neighbour's* router — the host-named-link case; the border
  //      interface is that address itself, and the neighbour is the AS
  //      owning most of its successors (the passive stand-in for bdrmap's
  //      alias resolution of the far router);
  //  (c) otherwise the address is host-internal and each far address heads
  //      its own (neighbour-named) border link.
  std::map<net::Ipv4Address, std::vector<const Candidate*>> by_near;
  for (const auto& [candidate, seen] : observations) {
    if (seen.size() < config.min_observations) continue;
    by_near[candidate.last_in].push_back(&candidate);
  }

  Claims claims;
  for (const auto& [near, candidates] : by_near) {
    bool straddles = false;
    for (const Candidate* candidate : candidates) {
      if (net::slash30_block(candidate->last_in) ==
          net::slash30_block(candidate->first_out)) {
        claims.push_back(
            make_claim(candidate->last_in, host_network, candidate->neighbor));
        claims.push_back(make_claim(candidate->first_out, host_network,
                                    candidate->neighbor));
        straddles = true;
      }
    }
    if (straddles) continue;

    const auto it = successors.find(near);
    if (it != successors.end()) {
      std::size_t fanout = 0;
      asdata::Asn majority = asdata::kUnknownAsn;
      std::size_t majority_count = 0;
      for (const auto& [asn, addrs] : it->second.foreign) {
        fanout += addrs.size();
        if (addrs.size() > majority_count ||
            (addrs.size() == majority_count && asn < majority)) {
          majority = asn;
          majority_count = addrs.size();
        }
      }
      // Host-space successors mostly rule out the far-router reading, but
      // load-balancing and route-flap artifacts can fabricate a few; allow
      // them as a small minority (bdrmap's real heuristics are similarly
      // tolerant of noise).
      if (fanout >= 2 && majority != asdata::kUnknownAsn &&
          it->second.host.size() * 3 <= fanout &&
          majority_count * 2 > fanout) {
        claims.push_back(make_claim(near, host_network, majority));
        continue;
      }
    }
    for (const Candidate* candidate : candidates) {
      claims.push_back(
          make_claim(candidate->first_out, host_network, candidate->neighbor));
    }
  }
  normalize(claims);
  return claims;
}

}  // namespace mapit::baselines
