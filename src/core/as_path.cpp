#include "core/as_path.h"

namespace mapit::core {

asdata::Asn router_attribution(const Inference& inference) {
  const bool forward =
      inference.half.direction == graph::Direction::kForward;
  const bool indirect = inference.kind == InferenceKind::kIndirect;
  return (forward != indirect) ? inference.router_as : inference.other_as;
}

PathAnnotator::PathAnnotator(const Result& result, const bgp::Ip2As& ip2as)
    : ip2as_(ip2as) {
  by_half_.reserve(result.inferences.size());
  for (const Inference& inference : result.inferences) {
    by_half_.emplace(inference.half, &inference);
  }
}

asdata::Asn PathAnnotator::attribute(net::Ipv4Address address) const {
  // Forward evidence is the stronger router-placement signal (the paper's
  // §3.1 reasoning); fall back to backward, then to the prefix origin.
  for (graph::Direction direction :
       {graph::Direction::kForward, graph::Direction::kBackward}) {
    auto it = by_half_.find({address, direction});
    if (it != by_half_.end()) {
      const asdata::Asn attributed = router_attribution(*it->second);
      if (attributed != asdata::kUnknownAsn) return attributed;
    }
  }
  return ip2as_.origin(address);
}

AnnotatedPath PathAnnotator::annotate(trace::TraceRow trace) const {
  AnnotatedPath out;
  out.hops.reserve(trace.hops.size());
  for (const trace::TraceHop& hop : trace.hops) {
    AnnotatedHop annotated;
    if (hop.responsive) {
      annotated.address = hop.address;
      annotated.origin = ip2as_.origin(hop.address);
      annotated.inferred = attribute(hop.address);
      annotated.border =
          by_half_.contains({hop.address, graph::Direction::kForward}) ||
          by_half_.contains({hop.address, graph::Direction::kBackward});
    }
    out.hops.push_back(annotated);

    auto append = [](std::vector<asdata::Asn>& path, asdata::Asn asn) {
      if (asn == asdata::kUnknownAsn) return;
      if (path.empty() || path.back() != asn) path.push_back(asn);
    };
    append(out.as_path, annotated.inferred);
    append(out.naive_as_path, annotated.origin);
  }
  return out;
}

}  // namespace mapit::core
