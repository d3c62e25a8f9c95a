// AS-level traceroute path annotation — the application the paper's §1
// motivates ("more precisely identifying the ASes traversed on a
// traceroute path, with implications for AS-connectivity research and
// network diagnosis").
//
// Naive prefix-based IP2AS assigns each hop its address's origin AS, which
// mislabels one side of every inter-AS link (Fig 1's AS55 -> AS15169
// mistake). MAP-IT's inferences say which *router* an interface actually
// sits on; PathAnnotator uses them to produce corrected per-hop router
// attributions and a deduplicated AS-level path.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/ip2as.h"
#include "core/engine.h"
#include "trace/trace.h"

namespace mapit::core {

/// The AS operating the router an inferred interface sits on, derived
/// from the inference's direction and kind (see docs/ALGORITHM.md):
/// forward direct/stub evidence places the router in the dominating AS;
/// backward evidence keeps it in the address-owning AS; indirect mirrors
/// invert their source. Returns kUnknownAsn when the relevant side is
/// unannounced.
[[nodiscard]] asdata::Asn router_attribution(const Inference& inference);

/// One annotated traceroute hop.
struct AnnotatedHop {
  std::optional<net::Ipv4Address> address;  ///< nullopt for '*'
  asdata::Asn origin = asdata::kUnknownAsn;    ///< prefix-based IP2AS
  asdata::Asn inferred = asdata::kUnknownAsn;  ///< MAP-IT router attribution
  bool border = false;  ///< hop carries an inter-AS link inference
};

struct AnnotatedPath {
  std::vector<AnnotatedHop> hops;
  /// Deduplicated inferred AS sequence (unknown/silent hops skipped).
  std::vector<asdata::Asn> as_path;
  /// The same sequence under naive origin mapping, for comparison.
  std::vector<asdata::Asn> naive_as_path;
};

class PathAnnotator {
 public:
  /// Indexes the result's confident inferences. Both references must
  /// outlive the annotator.
  PathAnnotator(const Result& result, const bgp::Ip2As& ip2as);

  [[nodiscard]] AnnotatedPath annotate(trace::TraceRow trace) const;

  /// Router attribution for a single address (origin when no inference).
  [[nodiscard]] asdata::Asn attribute(net::Ipv4Address address) const;

 private:
  const bgp::Ip2As& ip2as_;
  std::unordered_map<graph::InterfaceHalf, const Inference*> by_half_;
};

}  // namespace mapit::core
