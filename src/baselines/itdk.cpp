#include "baselines/itdk.h"

#include <algorithm>
#include <map>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mapit::baselines {

namespace {

/// Disjoint-set over cluster indices for the false-merge phase.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

Claims itdk_router_graph(const trace::TraceCorpus& corpus,
                         const topo::Internet& net, const bgp::Ip2As& ip2as,
                         const AliasConfig& config) {
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  // 1. Alias resolution simulation: each observed address lands either in
  //    its true router's main cluster or in its own singleton (split).
  const std::vector<net::Ipv4Address> addresses = corpus.distinct_addresses();
  std::unordered_map<net::Ipv4Address, std::size_t> cluster_of;
  std::map<topo::RouterId, std::size_t> main_cluster;
  std::size_t clusters = 0;
  for (net::Ipv4Address address : addresses) {
    const topo::RouterId router = net.router_of_address(address);
    if (router == topo::kNoRouter || coin(rng) < config.split_prob) {
      cluster_of[address] = clusters++;
      continue;
    }
    auto [it, inserted] = main_cluster.emplace(router, clusters);
    if (inserted) ++clusters;
    cluster_of[address] = it->second;
  }

  // 2. False merges: trace-adjacent cluster pairs occasionally collapse
  //    (kapar's analytical merging goes wrong across router boundaries).
  UnionFind uf(clusters);
  std::unordered_set<std::uint64_t> considered;
  for (const trace::TraceRow trace : corpus.traces()) {
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      const auto& h1 = trace.hops[i];
      const auto& h2 = trace.hops[i + 1];
      if (!h1.responsive || !h2.responsive) continue;
      if (h2.probe_ttl != h1.probe_ttl + 1) continue;
      const std::size_t c1 = cluster_of.at(h1.address);
      const std::size_t c2 = cluster_of.at(h2.address);
      if (c1 == c2) continue;
      const std::uint64_t key = (std::uint64_t{static_cast<std::uint32_t>(
                                     std::min(c1, c2))}
                                 << 32) |
                                std::uint64_t{static_cast<std::uint32_t>(
                                    std::max(c1, c2))};
      if (!considered.insert(key).second) continue;  // one flip per pair
      if (coin(rng) < config.false_merge_prob) uf.merge(c1, c2);
    }
  }

  // 3. Router-to-AS election: majority origin of member addresses, ties to
  //    the lowest ASN (the Huffaker et al. style assignment, §2).
  std::unordered_map<std::size_t, std::map<asdata::Asn, std::size_t>> votes;
  for (net::Ipv4Address address : addresses) {
    const asdata::Asn asn = ip2as.origin(address);
    if (asn == asdata::kUnknownAsn) continue;
    ++votes[uf.find(cluster_of.at(address))][asn];
  }
  std::unordered_map<std::size_t, asdata::Asn> node_as;
  for (const auto& [node, ballot] : votes) {
    asdata::Asn best = asdata::kUnknownAsn;
    std::size_t best_votes = 0;
    for (const auto& [asn, count] : ballot) {
      if (count > best_votes) {  // std::map ascending: ties keep lowest ASN
        best_votes = count;
        best = asn;
      }
    }
    node_as.emplace(node, best);
  }

  // 4. Inter-AS links: every trace adjacency between routers assigned to
  //    different ASes claims the far-side interface.
  Claims claims;
  for (const trace::TraceRow trace : corpus.traces()) {
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      const auto& h1 = trace.hops[i];
      const auto& h2 = trace.hops[i + 1];
      if (!h1.responsive || !h2.responsive) continue;
      if (h2.probe_ttl != h1.probe_ttl + 1) continue;
      const std::size_t n1 = uf.find(cluster_of.at(h1.address));
      const std::size_t n2 = uf.find(cluster_of.at(h2.address));
      if (n1 == n2) continue;
      auto a1 = node_as.find(n1);
      auto a2 = node_as.find(n2);
      if (a1 == node_as.end() || a2 == node_as.end()) continue;
      if (a1->second == a2->second) continue;
      claims.push_back(make_claim(h2.address, a1->second, a2->second));
    }
  }
  normalize(claims);
  return claims;
}

}  // namespace mapit::baselines
