// Traceroute data model.
//
// A trace is the sequence of hop responses for one (monitor, destination)
// probe run. Only the fields MAP-IT consumes are modelled: the responding
// address (or silence), the probe TTL, and the quoted TTL from the ICMP
// time-exceeded payload, which exposes the TTL=1-forwarding router bug the
// sanitizer filters (paper §4.1). A TraceCorpus stores every trace's hops
// in one arena, beside per-trace end-offset, monitor and destination
// columns, and reads as rows; `Trace` builds one trace on its own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <vector>

#include "net/ipv4.h"

namespace mapit::trace {

/// Identifier of the monitor (vantage point) that ran a trace.
using MonitorId = std::uint32_t;

/// One hop: an 8-byte POD, built with silent() or reply(). Every address
/// and quoted TTL is legal input (0.0.0.0, @0 and @255 all parse), so
/// presence is kept in flags, not in sentinel values.
struct TraceHop {
  net::Ipv4Address address;     ///< responding interface; 0.0.0.0 for '*'
  std::uint8_t probe_ttl = 0;   ///< TTL of the eliciting probe (1-based)
  std::uint8_t quoted_ttl = 0;  ///< TTL the ICMP payload quoted, if `quoted`
  bool responsive = false;      ///< false for an unresponsive hop ('*')
  bool quoted = false;          ///< the reply carried a quoted TTL

  static constexpr TraceHop silent(std::uint8_t probe_ttl) {
    return {{}, probe_ttl};
  }
  static constexpr TraceHop reply(std::uint8_t probe_ttl,
                                  net::Ipv4Address address,
                                  std::optional<std::uint8_t> quoted_ttl = {}) {
    return {address, probe_ttl, quoted_ttl.value_or(0), true,
            quoted_ttl.has_value()};
  }
  /// Quoted TTL 0: a buggy upstream router forwarded the probe with TTL=1,
  /// the artifact the sanitizer strips (§4.1).
  [[nodiscard]] constexpr bool quotes_ttl0() const {
    return quoted && quoted_ttl == 0;
  }
  friend constexpr bool operator==(const TraceHop&, const TraceHop&) = default;
};

/// A view of one trace: monitor, destination, hops in probe TTL order.
struct TraceRow {
  MonitorId monitor = 0;
  net::Ipv4Address destination;
  std::span<const TraceHop> hops;

  friend bool operator==(const TraceRow& a, const TraceRow& b) {
    return a.monitor == b.monitor && a.destination == b.destination &&
           std::ranges::equal(a.hops, b.hops);
  }
};

/// One trace that owns its hops, for building a trace hop by hop.
struct Trace {
  MonitorId monitor = 0;
  net::Ipv4Address destination;
  std::vector<TraceHop> hops;

  friend bool operator==(const Trace&, const Trace&) = default;
  operator TraceRow() const { return {monitor, destination, hops}; }
};

/// Count of hops that carried a response.
[[nodiscard]] std::size_t responsive_hops(TraceRow trace);

/// True when the same address appears twice separated by at least one
/// *different* responsive address — the cycle definition of Viger et al.
/// adopted by the paper (§4.1 footnote 5). Immediately repeated addresses
/// (e.g. a router answering two TTLs) are not cycles. `skip_ttl0` checks
/// the trace as the sanitizer leaves it, without quoted-TTL-0 hops.
[[nodiscard]] bool has_interface_cycle(TraceRow trace, bool skip_ttl0 = false);

/// An ordered collection of traces, stored as columns.
class TraceCorpus {
 public:
  void add(TraceRow trace);
  /// Appends every trace of `other`, in order.
  void append(const TraceCorpus& other);
  /// Appending one hop at a time: the hops pushed since the last
  /// close_trace() or drop_open_hops() make up the next trace.
  void push_hop(TraceHop hop) { hops_.push_back(hop); }
  void close_trace(MonitorId monitor, net::Ipv4Address destination);
  void drop_open_hops() { hops_.resize(ends_.empty() ? 0 : ends_.back()); }
  /// Removes every trace, keeping the allocated capacity.
  void clear() {
    hops_.clear();
    ends_.clear();
    monitors_.clear();
    destinations_.clear();
  }

  /// Trace `i` (< size()).
  [[nodiscard]] TraceRow row(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {monitors_[i], destinations_[i],
            std::span(hops_).subspan(begin, ends_[i] - begin)};
  }
  /// Random-access view of every trace as a TraceRow, in corpus order.
  /// Rows point into the arena: changing the corpus invalidates them.
  [[nodiscard]] auto traces() const {
    return std::views::iota(std::size_t{0}, size()) |
           std::views::transform([this](std::size_t i) { return row(i); });
  }
  [[nodiscard]] std::size_t size() const { return monitors_.size(); }
  [[nodiscard]] bool empty() const { return monitors_.empty(); }

  /// Every distinct responding address across all traces (sorted). The
  /// other-side heuristic (§4.2) uses this set *including* traces the
  /// sanitizer later discards.
  [[nodiscard]] std::vector<net::Ipv4Address> distinct_addresses() const;

  /// Distinct addresses that respond adjacent (consecutive probe TTLs) to at
  /// least one other responding address — the population MAP-IT can reason
  /// about (paper §5 reports 4,992,879 of 6,565,421 for Ark).
  [[nodiscard]] std::vector<net::Ipv4Address> adjacent_addresses() const;

  friend bool operator==(const TraceCorpus&, const TraceCorpus&) = default;

 private:
  std::vector<TraceHop> hops_;
  std::vector<std::size_t> ends_;  ///< one past each trace's last hop
  std::vector<MonitorId> monitors_;
  std::vector<net::Ipv4Address> destinations_;
};

}  // namespace mapit::trace
