// What the interface graph is built from, digested one trace at a time.
//
// A trace contributes three facts: its sanitizing counts (§4.1), its
// responding addresses to the other-side population (§4.2), and the
// forward edges (a, b) between its retained hops (§4.3). All three are
// sets or counts, so a GraphDigest needs no trace storage: `mapit
// snapshot`, `run` and `ingest` stream trace bytes straight into one per
// reader worker, merge them, and build the graph from the finished
// GraphInput. Per-trace work is a flat-table insert; the special-purpose
// filter runs once per unique edge, when the digest is finished.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "net/ipv4.h"
#include "net/load_report.h"
#include "trace/sanitize.h"
#include "trace/trace.h"

namespace mapit::graph {

/// A finished digest: everything InterfaceGraph is built from.
struct GraphInput {
  /// Sorted, unique packed forward edges `a << 32 | b`: hops at
  /// consecutive probe TTLs, both responsive, a != b, neither address
  /// special-purpose.
  std::vector<std::uint64_t> edges;
  /// Sorted distinct responding addresses of the *unsanitized* traces.
  std::vector<net::Ipv4Address> all_addresses;
  trace::SanitizeStats stats;
};

/// Open-addressing set of packed edges. Key 0 is the self edge
/// 0.0.0.0 -> 0.0.0.0, which is never an edge, so it marks empty slots.
class EdgeSet {
 public:
  void insert(std::uint64_t edge) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(edge) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == edge) return;
      i = (i + 1) & mask;
    }
    slots_[i] = edge;
    ++used_;
  }

  void merge(const EdgeSet& other);

  [[nodiscard]] std::span<const std::uint64_t> slots() const {
    return slots_;
  }

 private:
  static std::size_t slot_of(std::uint64_t edge) {
    return static_cast<std::size_t>((edge * 0x9E3779B97F4A7C15ULL) >> 32);
  }
  void grow();

  std::vector<std::uint64_t> slots_;  ///< power-of-two size, 0 = empty
  std::size_t used_ = 0;
};

/// Accumulates GraphInput facts trace by trace. One per worker; merging
/// digests gives the same GraphInput for any split of the traces.
class GraphDigest {
 public:
  /// Sanitizes a raw trace (§4.1, via trace::RowSanitizer) and adds its
  /// addresses to the population and its retained hops' edges.
  void add_raw(trace::TraceRow row);

  /// Adds the edges of a trace that is already sanitized: no rule is
  /// applied and no address joins the population.
  void add_sanitized(trace::TraceRow row);

  /// Adds every fact `other` holds.
  void merge(const GraphDigest& other);

  [[nodiscard]] GraphInput finish() const;

 private:
  /// Adds edge (a, b) when b answers one hop after a.
  void add_pair(const trace::TraceHop& a, const trace::TraceHop& b) {
    if (!a.responsive || !b.responsive) return;   // null hops break adjacency
    if (b.probe_ttl != a.probe_ttl + 1) return;   // must be one hop apart
    if (a.address == b.address) return;           // never own neighbour
    edges_.insert(std::uint64_t{a.address.value()} << 32 | b.address.value());
  }

  trace::RowSanitizer sanitizer_;
  EdgeSet edges_;
};

/// Streams a trace corpus into a finished GraphInput: the parse, the §4.1
/// rules and the edge gathering run in one pass per block, with one digest
/// per worker (see trace::stream_corpus for `threads`, `report` and the
/// errors). Identical for every thread count.
[[nodiscard]] GraphInput digest_corpus(std::istream& in, unsigned threads,
                                       LoadReport* report = nullptr);

/// The edges of sanitized traces, with `all_addresses` as the population.
[[nodiscard]] GraphInput sanitized_input(
    const trace::TraceCorpus& sanitized,
    std::span<const net::Ipv4Address> all_addresses);

}  // namespace mapit::graph
