#include "graph/interface_graph.h"

#include <algorithm>
#include <iterator>
#include <optional>

#include "parallel/thread_pool.h"

namespace mapit::graph {

namespace {

std::uint64_t pack(std::uint32_t high, std::uint32_t low) {
  return std::uint64_t{high} << 32 | low;
}

std::uint32_t high_of(std::uint64_t edge) {
  return static_cast<std::uint32_t>(edge >> 32);
}

std::uint32_t low_of(std::uint64_t edge) {
  return static_cast<std::uint32_t>(edge);
}

}  // namespace

InterfaceGraph::InterfaceGraph(const GraphInput& input, unsigned threads)
    : other_sides_(input.all_addresses) {
  build(input.edges, threads);
}

InterfaceGraph::InterfaceGraph(const trace::TraceCorpus& sanitized,
                               std::span<const net::Ipv4Address> all_addresses,
                               unsigned threads)
    : InterfaceGraph(sanitized_input(sanitized, all_addresses), threads) {}

void InterfaceGraph::fold(const GraphInput& delta, unsigned threads) {
  // The union of the base and delta edge sets is exactly the edge set a
  // cold build over base+delta gathers, and build() is the cold path, so
  // every HalfId (phantom order included) matches the cold build.
  const std::vector<std::uint64_t> base = stored_edges();
  std::vector<std::uint64_t> edges;
  edges.reserve(base.size() + delta.edges.size());
  std::set_union(base.begin(), base.end(), delta.edges.begin(),
                 delta.edges.end(), std::back_inserter(edges));
  const std::vector<net::Ipv4Address>& known = other_sides_.addresses();
  std::vector<net::Ipv4Address> population;
  population.reserve(known.size() + delta.all_addresses.size());
  std::set_union(known.begin(), known.end(), delta.all_addresses.begin(),
                 delta.all_addresses.end(), std::back_inserter(population));
  if (edges.size() == base.size() && population.size() == known.size()) {
    return;  // nothing new: the cold build over base+delta is this graph
  }
  // The §4.2 other-side heuristic is population-sensitive: a delta address
  // can flip an *existing* record's /30-vs-/31 decision by witnessing the
  // other half of its prefix. Rebuild the map over the merged population
  // before build() recomputes every other side.
  other_sides_ = OtherSideMap(population);
  build(edges, threads);
}

void InterfaceGraph::fold(const trace::TraceCorpus& sanitized_delta,
                          std::span<const net::Ipv4Address> all_addresses,
                          unsigned threads) {
  fold(sanitized_input(sanitized_delta, all_addresses), threads);
}

std::vector<std::uint64_t> InterfaceGraph::stored_edges() const {
  // Records ascend by address and each forward span ascends by id, i.e. by
  // neighbour address, so the edges come out sorted.
  std::vector<std::uint64_t> edges;
  edges.reserve(neighbor_ids_.size() / 2);
  for (std::size_t i = 0; i < record_count_; ++i) {
    const std::uint32_t a = addresses_[i].value();
    for (HalfId nid : neighbor_ids(static_cast<HalfId>(2 * i))) {
      edges.push_back(pack(a, address_at(nid).value()));
    }
  }
  return edges;
}

void InterfaceGraph::build(const std::vector<std::uint64_t>& edges,
                           unsigned threads) {
  // N_F(a) is the run of edges (a, ·). N_B(b) is the run of transposed
  // entries (b, k), where k is the position of edge (a, b): sorting by
  // (b, k) is sorting by (b, a), because the edges are sorted.
  std::vector<std::uint64_t> transposed;
  transposed.reserve(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    transposed.push_back(pack(low_of(edges[k]), static_cast<std::uint32_t>(k)));
  }
  std::sort(transposed.begin(), transposed.end());

  // Records: every edge endpoint, in address order.
  auto heads = [](const std::vector<std::uint64_t>& list) {
    std::vector<net::Ipv4Address> out;
    for (std::uint64_t edge : list) {
      const net::Ipv4Address a(high_of(edge));
      if (out.empty() || out.back() != a) out.push_back(a);
    }
    return out;
  };
  const std::vector<net::Ipv4Address> sources = heads(edges);
  const std::vector<net::Ipv4Address> targets = heads(transposed);
  addresses_.clear();
  std::set_union(sources.begin(), sources.end(), targets.begin(),
                 targets.end(), std::back_inserter(addresses_));
  record_count_ = addresses_.size();
  const std::size_t n = record_count_;

  // Record index of each edge's source and target. Both lists are sorted
  // by the address being ranked, so one merge walk over the records each.
  std::vector<std::uint32_t> source(edges.size());
  std::vector<std::uint32_t> target(edges.size());
  for (std::size_t k = 0, i = 0; k < edges.size(); ++k) {
    while (addresses_[i].value() != high_of(edges[k])) ++i;
    source[k] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t k = 0, i = 0; k < transposed.size(); ++k) {
    while (addresses_[i].value() != high_of(transposed[k])) ++i;
    target[low_of(transposed[k])] = static_cast<std::uint32_t>(i);
  }

  // Phantom addresses: other sides of records that are not records
  // themselves, sorted so half_id() can binary-search them. Sorted is also
  // their discovery order in record order: an other side lies in its
  // record's /30, and inside one /30 the non-record other sides come out
  // ascending (e.g. .0 -> .1 before .3 -> .2).
  std::vector<net::Ipv4Address> phantoms;
  for (std::size_t i = 0; i < n; ++i) {
    const net::Ipv4Address os = other_sides_.other_address(addresses_[i]);
    if (!std::binary_search(addresses_.begin(), addresses_.end(), os)) {
      phantoms.push_back(os);
    }
  }
  std::sort(phantoms.begin(), phantoms.end());
  phantoms.erase(std::unique(phantoms.begin(), phantoms.end()),
                 phantoms.end());
  addresses_.insert(addresses_.end(), phantoms.begin(), phantoms.end());
  const std::size_t halves = half_count();

  // Offsets: record i's forward run, then its backward run. A sequential
  // prefix sum that also notes where each run starts in its list.
  neighbor_offsets_.assign(halves + 1, 0);
  std::vector<std::uint32_t> forward_begin(n);
  std::vector<std::uint32_t> backward_begin(n);
  std::size_t f = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = addresses_[i].value();
    forward_begin[i] = static_cast<std::uint32_t>(f);
    backward_begin[i] = static_cast<std::uint32_t>(b);
    neighbor_offsets_[2 * i] = static_cast<std::uint32_t>(f + b);
    while (f < edges.size() && high_of(edges[f]) == a) ++f;
    neighbor_offsets_[2 * i + 1] = static_cast<std::uint32_t>(f + b);
    while (b < transposed.size() && high_of(transposed[b]) == a) ++b;
  }
  for (std::size_t id = 2 * n; id <= halves; ++id) {
    neighbor_offsets_[id] = static_cast<std::uint32_t>(f + b);
  }

  const unsigned resolved = parallel::resolve_threads(threads);
  std::optional<parallel::ThreadPool> pool_storage;
  if (resolved > 1 && n > 1) pool_storage.emplace(resolved);
  parallel::ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;

  // Neighbour-id spans: the forward run holds the backward halves of the
  // successors, the backward run the forward halves of the predecessors.
  neighbor_ids_.resize(f + b);
  parallel::for_ranges(pool, n, [&](unsigned, std::size_t begin,
                                    std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::uint32_t k = neighbor_offsets_[2 * i];
      for (std::uint32_t e = forward_begin[i]; k < neighbor_offsets_[2 * i + 1];
           ++k, ++e) {
        neighbor_ids_[k] = 2 * target[e] + 1;
      }
      for (std::uint32_t t = backward_begin[i];
           k < neighbor_offsets_[2 * i + 2]; ++k, ++t) {
        neighbor_ids_[k] = 2 * source[low_of(transposed[t])];
      }
    }
  });

  // Other-side ids, one lookup per address: {a, d} -> {os(a), opposite(d)}.
  // Record halves always resolve (their other-side address is a record or
  // a phantom by construction); a phantom's own other side may fall
  // outside the universe.
  other_ids_.assign(halves, kInvalidHalfId);
  parallel::for_ranges(pool, addresses_.size(), [&](unsigned,
                                                    std::size_t begin,
                                                    std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const HalfId os = half_id(
          forward_half(other_sides_.other_address(addresses_[i])));
      if (os == kInvalidHalfId) continue;
      other_ids_[2 * i] = os + 1;
      other_ids_[2 * i + 1] = os;
    }
  });
}

HalfId InterfaceGraph::half_id(const InterfaceHalf& half) const {
  const auto records_end =
      addresses_.begin() + static_cast<std::ptrdiff_t>(record_count_);
  auto it = std::lower_bound(addresses_.begin(), records_end, half.address);
  if (it == records_end || *it != half.address) {
    it = std::lower_bound(records_end, addresses_.end(), half.address);
    if (it == addresses_.end() || *it != half.address) return kInvalidHalfId;
  }
  return static_cast<HalfId>(
      2 * static_cast<std::size_t>(it - addresses_.begin()) +
      direction_bit(half.direction));
}

InterfaceHalf InterfaceGraph::half_at(HalfId id) const {
  return {address_at(id),
          (id & 1u) == 0 ? Direction::kForward : Direction::kBackward};
}

InterfaceHalf InterfaceGraph::other_side_half(const InterfaceHalf& half) const {
  return {other_sides_.other_address(half.address),
          opposite(half.direction)};
}

GraphStats InterfaceGraph::stats() const {
  GraphStats stats;
  stats.interfaces = record_count_;
  stats.slash31_fraction = other_sides_.slash31_fraction();
  for (std::size_t i = 0; i < record_count_; ++i) {
    const auto forward = neighbor_ids(static_cast<HalfId>(2 * i));
    const auto backward = neighbor_ids(static_cast<HalfId>(2 * i + 1));
    if (forward.size() > 1) ++stats.forward_multi;
    if (backward.size() > 1) ++stats.backward_multi;
    // Sorted-set intersection test for the §3.2 footnote-3 statistic; the
    // two spans name opposite halves, so compare interface indices.
    auto fi = forward.begin();
    auto bi = backward.begin();
    bool overlap = false;
    while (fi != forward.end() && bi != backward.end()) {
      if (*fi >> 1 == *bi >> 1) {
        overlap = true;
        break;
      }
      if (*fi < *bi) {
        ++fi;
      } else {
        ++bi;
      }
    }
    if (overlap) ++stats.both_directions_overlap;
  }
  return stats;
}

}  // namespace mapit::graph
