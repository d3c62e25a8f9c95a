#include "eval/evaluator.h"

#include <algorithm>

namespace mapit::eval {

namespace {

/// Forward half id of `address` when it is a record (seen adjacent to
/// another address), else kInvalidHalfId.
graph::HalfId record_id(const graph::InterfaceGraph& graph,
                        net::Ipv4Address address) {
  const graph::HalfId id = graph.half_id(graph::forward_half(address));
  return id < graph.record_half_count() ? id : graph::kInvalidHalfId;
}

}  // namespace

Evaluator::Evaluator(const topo::Internet& net,
                     const graph::InterfaceGraph& graph)
    : net_(net), graph_(graph) {
  for (const topo::AsInfo& info : net.ases()) {
    for (const net::Prefix& prefix : info.announced) {
      true_origins_.insert(prefix, info.asn);
    }
    if (info.unannounced) true_origins_.insert(*info.unannounced, info.asn);
  }
}

asdata::Asn Evaluator::true_origin(net::Ipv4Address address) const {
  const asdata::Asn* asn = true_origins_.longest_match(address);
  return asn == nullptr ? asdata::kUnknownAsn : *asn;
}

bool Evaluator::pair_matches(asdata::Asn claim_a, asdata::Asn claim_b,
                             asdata::Asn truth_a, asdata::Asn truth_b) const {
  const auto& orgs = net_.true_orgs();
  const std::uint64_t ca = orgs.group_key(claim_a);
  const std::uint64_t cb = orgs.group_key(claim_b);
  const std::uint64_t ta = orgs.group_key(truth_a);
  const std::uint64_t tb = orgs.group_key(truth_b);
  return (ca == ta && cb == tb) || (ca == tb && cb == ta);
}

bool Evaluator::involves(asdata::Asn asn, asdata::Asn target) const {
  return net_.true_orgs().are_siblings(asn, target);
}

asdata::LinkClass Evaluator::classify(asdata::Asn a, asdata::Asn b) const {
  return net_.true_relationships().classify_link(a, b, net_.true_orgs());
}

bool Evaluator::link_eligible(const AsGroundTruth& truth,
                              const LinkTruth& link) const {
  // §5.2: the interface or its other side must appear in the traces...
  const graph::HalfId ra = record_id(graph_, link.addr_a);
  const graph::HalfId rb = record_id(graph_, link.addr_b);
  if (ra == graph::kInvalidHalfId && rb == graph::kInvalidHalfId) return false;
  // ...and evidence of the connected AS must have been observable: the link
  // is numbered from the connected AS, or some address of the connected AS
  // was seen adjacent to the link.
  const asdata::Asn remote = link.remote;
  if (involves(true_origin(link.addr_a), remote) ||
      involves(true_origin(link.addr_b), remote)) {
    return true;
  }
  for (graph::HalfId record : {ra, rb}) {
    if (record == graph::kInvalidHalfId) continue;
    for (graph::HalfId half : {record, record + 1}) {
      for (graph::HalfId neighbor : graph_.neighbor_ids(half)) {
        if (involves(true_origin(graph_.address_at(neighbor)), remote)) {
          return true;
        }
      }
    }
  }
  (void)truth;
  return false;
}

Verification Evaluator::verify(const AsGroundTruth& truth,
                               const baselines::Claims& claims) const {
  Verification out;
  const asdata::Asn target = truth.target();
  std::vector<bool> link_correct(truth.links().size(), false);

  // --- score claims ----------------------------------------------------
  for (const baselines::Claim& claim : claims) {
    const bool involves_target =
        involves(claim.a, target) || involves(claim.b, target);
    const asdata::Asn other = involves(claim.a, target) ? claim.b : claim.a;

    if (const std::size_t* index = truth.link_of(claim.address)) {
      const LinkTruth& link = truth.links()[*index];
      if (involves_target &&
          pair_matches(claim.a, claim.b, target, link.recorded_remote)) {
        link_correct[*index] = true;
      } else {
        out.false_positives.push_back(claim);
        out.by_class[involves_target ? classify(target, other)
                                     : classify(claim.a, claim.b)]
            .fp++;
      }
      continue;
    }

    if (truth.internal().contains(claim.address)) {
      // Inference on an internal interface is always an error (§5.2).
      out.false_positives.push_back(claim);
      out.by_class[involves_target ? classify(target, other)
                                   : classify(claim.a, claim.b)]
          .fp++;
      continue;
    }

    if (!involves_target) continue;  // outside this verification's scope

    if (truth.is_exact()) {
      // Exact inventory: a target-involving claim on an address the dataset
      // does not know is an error.
      out.false_positives.push_back(claim);
      out.by_class[classify(target, other)].fp++;
      continue;
    }

    // Approximate dataset: only claims adjacent to a known link with the
    // same pair are verifiable errors (§5.2); others cannot be judged.
    const graph::HalfId record = record_id(graph_, claim.address);
    if (record == graph::kInvalidHalfId) continue;
    bool adjacent_error = false;
    for (graph::HalfId half : {record, record + 1}) {
      for (graph::HalfId neighbor : graph_.neighbor_ids(half)) {
        const std::size_t* index = truth.link_of(graph_.address_at(neighbor));
        if (index == nullptr) continue;
        const LinkTruth& link = truth.links()[*index];
        if (pair_matches(claim.a, claim.b, target, link.recorded_remote)) {
          adjacent_error = true;
          break;
        }
      }
      if (adjacent_error) break;
    }
    if (adjacent_error) {
      out.false_positives.push_back(claim);
      out.by_class[classify(target, other)].fp++;
    }
  }

  // --- score links (TP / FN) --------------------------------------------
  for (std::size_t i = 0; i < truth.links().size(); ++i) {
    const LinkTruth& link = truth.links()[i];
    const asdata::LinkClass cls = classify(target, link.remote);
    if (link_correct[i]) {
      out.by_class[cls].tp++;
    } else if (link_eligible(truth, link)) {
      out.by_class[cls].fn++;
      out.false_negatives.push_back(link);
    }
  }

  for (const auto& [_, metrics] : out.by_class) out.total += metrics;
  return out;
}

}  // namespace mapit::eval
