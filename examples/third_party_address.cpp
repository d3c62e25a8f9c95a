// Third-party addresses and dual inferences (paper §4.4.3, Fig 4).
//
// 212.113.9.210 is announced by AS3356 (Level3) and really connects
// AS3356 to AS51159 (Think Systems). But Think Systems returns its ICMP
// replies through Level3 even for probes that arrived via TeliaSonera
// (AS1299) — so 212.113.9.210 also shows up *after* TeliaSonera hops,
// acquiring a backward neighbour set dominated by AS1299.
//
// MAP-IT initially infers both directions; the dual-inference rule keeps
// the forward inference (the true link) and discards the backward one.
#include <iostream>
#include <sstream>

#include "asdata/as2org.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "core/engine.h"
#include "graph/interface_graph.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

int main() {
  using namespace mapit;

  std::istringstream traces(
      // Probes crossing TeliaSonera toward Think Systems; the reply for the
      // border hop is sourced from the Level3-facing interface.
      "0|31.131.0.1|80.91.240.1 212.113.9.210 31.131.0.9\n"
      "1|31.131.0.1|80.91.244.5 212.113.9.210 31.131.0.13\n");
  const trace::TraceCorpus corpus = trace::read_corpus(traces);

  std::istringstream announcements(
      "rc0|212.113.0.0/16|3356\n"   // Level3
      "rc0|80.91.240.0/20|1299\n"   // TeliaSonera
      "rc0|31.131.0.0/16|51159\n"); // Think Systems
  const bgp::Rib rib = bgp::Rib::read(announcements);
  const bgp::Ip2As ip2as(rib);

  const auto sanitized = trace::sanitize(corpus);
  const graph::InterfaceGraph graph(sanitized.clean, sanitized.all_addresses);

  const asdata::As2Org orgs;
  asdata::AsRelationships rels;
  // Level3 transits Think Systems; knowing Level3 is an ISP also keeps the
  // stub heuristic away from its addresses.
  rels.add_transit(3356, 51159);
  const core::Result result =
      core::run_mapit(graph, ip2as, orgs, rels, core::Options{});

  std::cout << "inferences after dual resolution:\n";
  for (const core::Inference& inference : result.inferences) {
    std::cout << "  " << inference.to_string() << "\n";
  }
  std::cout << "dual inferences resolved: " << result.stats.duals_resolved
            << "\n";

  const net::Ipv4Address tp = net::Ipv4Address::parse_or_throw("212.113.9.210");
  const core::Inference* forward = result.find(graph::forward_half(tp));
  const core::Inference* backward = result.find(graph::backward_half(tp));
  if (forward != nullptr && backward == nullptr &&
      forward->router_as == 51159 && forward->other_as == 3356) {
    std::cout << "\nkept: the true AS3356 <-> AS51159 link "
              << "(THINK-SYSTE.edge5.London1.Level3.net);\n"
              << "dropped: the phantom AS1299 <-> AS3356 backward "
              << "inference caused by the third-party reply path.\n";
    return 0;
  }
  std::cerr << "unexpected result\n";
  return 1;
}
