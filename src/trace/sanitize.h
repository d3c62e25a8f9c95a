// Trace sanitization (paper §4.1).
//
// Two defenses against traceroute artifacts before any inference is drawn:
//   1. Hops whose ICMP reply quotes TTL 0 are removed (a buggy upstream
//      router forwarded the probe with TTL=1 instead of answering); the
//      rest of the trace is retained.
//   2. Traces containing an interface cycle — the same address twice,
//      separated by at least one different address — are discarded wholesale
//      (per-packet load balancing / transient route changes).
//
// The paper reports discarding 2.7% of Ark traces while retaining 89.1% of
// distinct addresses; SanitizeStats exposes the same ratios.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/address_table.h"
#include "trace/trace.h"

namespace mapit::trace {

struct SanitizeStats {
  std::size_t input_traces = 0;
  std::size_t discarded_traces = 0;     ///< dropped for interface cycles
  std::size_t removed_ttl0_hops = 0;    ///< hops stripped for quoted TTL 0
  std::size_t input_addresses = 0;      ///< distinct addresses before
  std::size_t retained_addresses = 0;   ///< distinct addresses after

  [[nodiscard]] double discard_fraction() const {
    return input_traces == 0 ? 0.0
                             : static_cast<double>(discarded_traces) /
                                   static_cast<double>(input_traces);
  }
  [[nodiscard]] double address_retention() const {
    return input_addresses == 0 ? 1.0
                                : static_cast<double>(retained_addresses) /
                                      static_cast<double>(input_addresses);
  }
};

struct SanitizeResult {
  TraceCorpus clean;
  SanitizeStats stats;
  /// The input's distinct_addresses(): the §4.2 other-side population,
  /// which includes discarded traces.
  std::vector<net::Ipv4Address> all_addresses;
};

/// The §4.1 rules applied one trace at a time, with the counts and the two
/// address populations SanitizeStats reports. The state is counts and an
/// address set, so a worker may sanitize any share of the traces with its
/// own RowSanitizer: merged, the result does not depend on the split.
class RowSanitizer {
 public:
  /// Sanitizes `row`. Every responding address is marked seen. Unless the
  /// row has an interface cycle (checked as if its TTL-0 hops were gone),
  /// each hop that survives TTL-0 stripping is marked retained and passed
  /// to `retained(hop)`, in order. Returns whether the row is kept.
  template <class OnHop>
  bool add(TraceRow row, OnHop&& retained) {
    const bool kept = !has_interface_cycle(row, /*skip_ttl0=*/true);
    ++stats_.input_traces;
    if (!kept) ++stats_.discarded_traces;
    for (const TraceHop& hop : row.hops) {
      const bool keep_hop = kept && !hop.quotes_ttl0();
      if (hop.quotes_ttl0()) ++stats_.removed_ttl0_hops;
      if (hop.responsive) {
        addresses_.mark(hop.address, keep_hop ? kSeen | kRetained : kSeen);
      }
      if (keep_hop) retained(hop);
    }
    return kept;
  }

  /// Adds `other`'s traces, as if this sanitizer had seen them too.
  void merge(const RowSanitizer& other);

  /// The counts so far, distinct addresses included.
  [[nodiscard]] SanitizeStats stats() const;

  /// Every distinct responding address so far, discarded traces included
  /// (sorted): the §4.2 other-side population.
  [[nodiscard]] std::vector<net::Ipv4Address> all_addresses() const {
    return addresses_.sorted(kSeen);
  }

 private:
  static constexpr std::uint8_t kSeen = 1;      // responds in the input
  static constexpr std::uint8_t kRetained = 2;  // responds in a kept hop
  SanitizeStats stats_;  // address counts are filled in by stats()
  AddressTable addresses_;
};

/// Returns the TTL-0-stripped, cycle-free traces plus statistics, in one
/// pass over the hops. TTL-0 hop removal happens *before* the cycle check,
/// mirroring the paper's step order ("After sanitizing a trace, we attempt
/// to identify if load balancing or a transient routing change occurred").
/// `threads` workers each sanitize a contiguous range of traces with their
/// own RowSanitizer (0 = one per hardware thread, 1 = sequential); the
/// result is identical for every thread count.
[[nodiscard]] SanitizeResult sanitize(const TraceCorpus& corpus,
                                      unsigned threads = 1);

}  // namespace mapit::trace
