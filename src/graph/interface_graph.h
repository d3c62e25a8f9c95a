// Interface-level graph: neighbour sets per interface (paper §3, §4.3)
// plus the other-side relation.
//
// For every interface address the graph stores the set of unique addresses
// seen exactly one hop before it (N_B) and after it (N_F) across all
// sanitized traces. Null hops break adjacency; private/shared/special
// addresses are excluded both as subjects and as neighbours; an address is
// never its own neighbour.
//
// The sets live in one place: dense half-id spans (an offset table plus a
// flat id array) built from the sorted, unique list of forward edges
// (a, b) that a GraphDigest gathers (graph/graph_input.h). Address lookup
// is a binary search over the sorted addresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_input.h"
#include "graph/halves.h"
#include "graph/other_side.h"
#include "net/ipv4.h"
#include "trace/trace.h"

namespace mapit::graph {

/// Dense contiguous identifier for an interface half.
///
/// Layout: `interface index * 2 + direction` with kForward = 0 and
/// kBackward = 1, so the id order equals (address, direction) order for
/// record halves. Interface indices [0, size()) are the graph's records in
/// address order; indices [size(), size() + phantom_count()) are "phantom"
/// addresses — other-side addresses of records that never appeared as an
/// interface themselves. Phantoms have empty neighbour sets but still need
/// state slots in the engine (indirect inferences land on them).
using HalfId = std::uint32_t;
inline constexpr HalfId kInvalidHalfId = 0xffffffffu;

[[nodiscard]] constexpr std::uint32_t direction_bit(Direction d) {
  return d == Direction::kForward ? 0u : 1u;
}

/// Corpus-level statistics mirroring §4.3's reported numbers.
struct GraphStats {
  std::size_t interfaces = 0;             ///< addresses with any neighbour
  std::size_t forward_multi = 0;          ///< |N_F| > 1
  std::size_t backward_multi = 0;         ///< |N_B| > 1
  std::size_t both_directions_overlap = 0;///< same address in N_F and N_B
  double slash31_fraction = 0.0;          ///< §4.2's 40.4% statistic

  [[nodiscard]] double overlap_fraction() const {
    return interfaces == 0 ? 0.0
                           : static_cast<double>(both_directions_overlap) /
                                 static_cast<double>(interfaces);
  }
};

class InterfaceGraph {
 public:
  /// Builds the graph from a finished digest: its edges, and its address
  /// population for the other-side map.
  ///
  /// `threads` workers fill the neighbour-id spans and other-side ids over
  /// disjoint index ranges (0 = one per hardware thread, 1 = fully
  /// sequential). Every write position comes from the offset table, so the
  /// layout is byte-identical for every thread count.
  explicit InterfaceGraph(const GraphInput& input, unsigned threads = 1);

  /// Builds the graph from sanitized traces. `all_addresses` must be the
  /// address population of the *unsanitized* corpus (the §4.2 heuristic
  /// deliberately uses discarded traces too); pass the sanitized corpus's
  /// own addresses when the original corpus is unavailable.
  InterfaceGraph(const trace::TraceCorpus& sanitized,
                 std::span<const net::Ipv4Address> all_addresses,
                 unsigned threads = 1);

  /// Incrementally folds a delta digest into the graph: its edges join the
  /// edge set and its addresses the population. The §4.2 other-side map is
  /// rebuilt over the merged population, because new witnesses can flip
  /// existing records' /30-vs-/31 decisions. A delta that adds no edge and
  /// no address changes nothing, and returns without a rebuild.
  ///
  /// Postcondition (pinned by the graph fold test and the ingest
  /// equivalence tests): the folded graph is indistinguishable — records,
  /// neighbour spans, other sides, phantom order, every HalfId — from a
  /// cold-built graph over the concatenated corpus, for any fold batching
  /// and any thread count.
  void fold(const GraphInput& delta, unsigned threads = 1);

  /// Folds a batch of sanitized delta traces. `all_addresses` must be the
  /// *merged* unsanitized address population (base + every delta so far).
  void fold(const trace::TraceCorpus& sanitized_delta,
            std::span<const net::Ipv4Address> all_addresses,
            unsigned threads = 1);

  /// The other-side half of `half`: the opposite-direction view of the
  /// interface on the far end of the link prefix (paper §3.2).
  [[nodiscard]] InterfaceHalf other_side_half(const InterfaceHalf& half) const;

  [[nodiscard]] const OtherSideMap& other_sides() const { return other_sides_; }

  [[nodiscard]] GraphStats stats() const;

  /// Number of records: addresses seen adjacent to another address.
  [[nodiscard]] std::size_t size() const { return record_count_; }

  // --- dense half-ID layout --------------------------------------------
  // Engine hot loops index flat slabs with these ids instead of hashing
  // InterfaceHalf keys (see DESIGN.md "Dense engine state").

  /// Number of phantom (other-side-only) addresses.
  [[nodiscard]] std::size_t phantom_count() const {
    return addresses_.size() - record_count_;
  }

  /// Total half ids: 2 * (records + phantoms). Valid ids are [0, half_count()).
  [[nodiscard]] std::size_t half_count() const { return addresses_.size() * 2; }

  /// Half ids below this belong to records (addresses with neighbours).
  [[nodiscard]] std::size_t record_half_count() const {
    return record_count_ * 2;
  }

  /// The id of `half`, or kInvalidHalfId when its address is neither a
  /// record nor a phantom.
  [[nodiscard]] HalfId half_id(const InterfaceHalf& half) const;

  /// Inverse of half_id. `id` must be valid.
  [[nodiscard]] InterfaceHalf half_at(HalfId id) const;

  [[nodiscard]] net::Ipv4Address address_at(HalfId id) const {
    return addresses_[id / 2];
  }

  /// The neighbour set of half {a, d} as ids of the opposite-direction
  /// halves {n, opposite(d)}, one per n in N_d(a), ascending (= address
  /// order). Empty for phantom halves.
  ///
  /// The relation is symmetric: h is in neighbor_ids(g) exactly when g is
  /// in neighbor_ids(h), because every edge (a, b) puts b_b in N_F(a) and
  /// a_f in N_B(b). So a half's span also lists the halves whose majority
  /// counts must be recomputed when its effective mapping changes.
  [[nodiscard]] std::span<const HalfId> neighbor_ids(HalfId id) const {
    return {neighbor_ids_.data() + neighbor_offsets_[id],
            neighbor_ids_.data() + neighbor_offsets_[id + 1]};
  }

  /// Id of other_side_half(half_at(id)); kInvalidHalfId when the other-side
  /// address is outside the id universe (possible only for phantom halves).
  [[nodiscard]] HalfId other_side_id(HalfId id) const { return other_ids_[id]; }

 private:
  /// The sorted forward edges currently stored in the spans.
  [[nodiscard]] std::vector<std::uint64_t> stored_edges() const;
  /// Rebuilds every member but other_sides_ from sorted unique edges.
  void build(const std::vector<std::uint64_t>& edges, unsigned threads);

  OtherSideMap other_sides_;
  // Records (sorted) followed by phantoms (sorted, which is also the order
  // records discover them in); address_at(id) == addresses_[id / 2].
  std::vector<net::Ipv4Address> addresses_;
  std::size_t record_count_ = 0;
  std::vector<HalfId> neighbor_ids_;             // flattened spans
  std::vector<std::uint32_t> neighbor_offsets_;  // size half_count() + 1
  std::vector<HalfId> other_ids_;                // per half id
};

}  // namespace mapit::graph
