#include "baselines/simple.h"

namespace mapit::baselines {

namespace {

template <typename PairFn>
Claims scan_adjacent(const trace::TraceCorpus& corpus, const bgp::Ip2As& ip2as,
                     PairFn&& emit) {
  Claims claims;
  for (const trace::TraceRow trace : corpus.traces()) {
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      const trace::TraceHop& h1 = trace.hops[i];
      const trace::TraceHop& h2 = trace.hops[i + 1];
      if (!h1.responsive || !h2.responsive) continue;
      if (h2.probe_ttl != h1.probe_ttl + 1) continue;
      const asdata::Asn as1 = ip2as.origin(h1.address);
      const asdata::Asn as2 = ip2as.origin(h2.address);
      if (as1 == asdata::kUnknownAsn || as2 == asdata::kUnknownAsn) continue;
      if (as1 == as2) continue;
      emit(claims, h1.address, as1, h2.address, as2);
    }
  }
  normalize(claims);
  return claims;
}

}  // namespace

Claims simple_heuristic(const trace::TraceCorpus& corpus,
                        const bgp::Ip2As& ip2as) {
  return scan_adjacent(
      corpus, ip2as,
      [](Claims& claims, net::Ipv4Address, asdata::Asn as1,
         net::Ipv4Address addr2, asdata::Asn as2) {
        // First address in the new AS is assumed to be the link interface.
        claims.push_back(make_claim(addr2, as1, as2));
      });
}

Claims convention_heuristic(const trace::TraceCorpus& corpus,
                            const bgp::Ip2As& ip2as,
                            const asdata::AsRelationships& relationships) {
  return scan_adjacent(
      corpus, ip2as,
      [&relationships](Claims& claims, net::Ipv4Address addr1,
                       asdata::Asn as1, net::Ipv4Address addr2,
                       asdata::Asn as2) {
        const asdata::Relationship rel = relationships.relationship(as1, as2);
        if (rel == asdata::Relationship::kProvider) {
          // Transit link numbered from the provider (as1): the address in
          // provider space is the boundary interface.
          claims.push_back(make_claim(addr1, as1, as2));
        } else if (rel == asdata::Relationship::kCustomer) {
          claims.push_back(make_claim(addr2, as1, as2));
        } else {
          // No known transit relationship: fall back to Simple.
          claims.push_back(make_claim(addr2, as1, as2));
        }
      });
}

}  // namespace mapit::baselines
