// Multipass refinement (paper §4.4.1's narrative).
//
// On the first pass through the interface halves, nothing can be inferred
// for 199.109.5.1_b: its backward neighbours map to three different ASes.
// But once 109.105.98.10_f is inferred to sit on an AS11537 router, its
// IP2AS mapping is updated — and on the next pass AS11537 dominates
// 199.109.5.1's backward set, exposing the AS11537 <-> AS3754 link.
//
// This example instruments the engine with snapshots so you can watch each
// stage of the refinement.
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
      // Evidence that 109.105.98.10 (NORDUnet space) is on an I2 router.
      "0|199.109.200.1|109.105.98.10 198.71.46.180\n"
      "1|199.109.200.1|109.105.98.10 198.71.45.2\n"
      // 199.109.5.1's backward set: one NORDUnet-space, one I2-space, one
      // unrelated address. No initial majority.
      "2|199.109.200.1|109.105.98.10 199.109.5.1 199.109.9.9\n"
      "3|199.109.200.1|198.71.44.6 199.109.5.1 199.109.9.9\n"
      "4|199.109.200.1|64.57.28.130 199.109.5.1 199.109.9.9\n");
  const trace::TraceCorpus corpus = trace::read_corpus(traces);

  std::istringstream announcements(
      "rc0|198.71.0.0/16|11537\n"
      "rc0|109.105.0.0/16|2603\n"
      "rc0|199.109.0.0/16|3754\n"
      "rc0|64.57.28.0/24|55\n");  // unrelated third AS
  const bgp::Rib rib = bgp::Rib::read(announcements);
  const bgp::Ip2As ip2as(rib);

  const auto sanitized = trace::sanitize(corpus);
  const graph::InterfaceGraph graph(sanitized.clean, sanitized.all_addresses);

  const asdata::As2Org orgs;
  const asdata::AsRelationships rels;
  core::Options options;
  options.f = 0.5;
  options.capture_snapshots = true;
  const core::Result result = core::run_mapit(graph, ip2as, orgs, rels,
                                              options);

  const graph::InterfaceHalf watched = graph::backward_half(
      net::Ipv4Address::parse_or_throw("199.109.5.1"));
  std::cout << "watching " << watched.to_string() << " through the stages:\n";
  for (const core::Snapshot& snapshot : result.snapshots) {
    const core::Inference* inference = nullptr;
    for (const core::Inference& candidate : snapshot.inferences) {
      if (candidate.half == watched) inference = &candidate;
    }
    std::cout << "  after " << snapshot.label << ": "
              << (inference != nullptr ? inference->to_string()
                                       : "(no inference yet)")
              << "\n";
  }

  std::cout << "\ntotal add passes: " << result.stats.add_passes
            << " (the second pass is where the update pays off)\n";

  const core::Inference* final_inference = result.find(watched);
  if (final_inference != nullptr && final_inference->router_as == 11537 &&
      final_inference->other_as == 3754) {
    std::cout << "199.109.5.1 connects AS11537 <-> AS3754, found only\n"
              << "because the first pass refined the IP2AS mappings.\n";
    return 0;
  }
  std::cerr << "unexpected result\n";
  return 1;
}
