#include "trace/trace.h"

#include "trace/address_table.h"

namespace mapit::trace {

std::size_t responsive_hops(TraceRow trace) {
  return static_cast<std::size_t>(std::ranges::count_if(
      trace.hops, [](const TraceHop& hop) { return hop.responsive; }));
}

bool has_interface_cycle(TraceRow trace, bool skip_ttl0) {
  // A cycle is an address that starts two runs of responsive hops ('*'s
  // inside a run included). Keep the run starts, and search them only when
  // a 64-bit filter says the address may have started one before.
  thread_local std::vector<std::uint32_t> starts;
  starts.clear();
  std::uint64_t filter = 0;
  for (const TraceHop& hop : trace.hops) {
    if (!hop.responsive || (skip_ttl0 && hop.quotes_ttl0())) continue;
    const std::uint32_t address = hop.address.value();
    if (!starts.empty() && starts.back() == address) continue;
    const std::uint64_t bit = std::uint64_t{1} << (address * 0x9E3779B1U >> 26);
    if ((filter & bit) != 0 && std::ranges::count(starts, address) != 0) {
      return true;
    }
    filter |= bit;
    starts.push_back(address);
  }
  return false;
}

void TraceCorpus::add(TraceRow trace) {
  hops_.insert(hops_.end(), trace.hops.begin(), trace.hops.end());
  close_trace(trace.monitor, trace.destination);
}

void TraceCorpus::append(const TraceCorpus& other) {
  for (std::size_t end : other.ends_) ends_.push_back(hops_.size() + end);
  hops_.insert(hops_.end(), other.hops_.begin(), other.hops_.end());
  monitors_.insert(monitors_.end(), other.monitors_.begin(),
                   other.monitors_.end());
  destinations_.insert(destinations_.end(), other.destinations_.begin(),
                       other.destinations_.end());
}

void TraceCorpus::close_trace(MonitorId monitor,
                              net::Ipv4Address destination) {
  ends_.push_back(hops_.size());
  monitors_.push_back(monitor);
  destinations_.push_back(destination);
}

std::vector<net::Ipv4Address> TraceCorpus::distinct_addresses() const {
  AddressTable seen;
  for (const TraceHop& hop : hops_) {
    if (hop.responsive) seen.mark(hop.address, 1);
  }
  return seen.sorted(1);
}

std::vector<net::Ipv4Address> TraceCorpus::adjacent_addresses() const {
  AddressTable seen;
  for (const TraceRow trace : traces()) {
    for (std::size_t h = 1; h < trace.hops.size(); ++h) {
      const TraceHop& a = trace.hops[h - 1];
      const TraceHop& b = trace.hops[h];
      if (a.responsive && b.responsive && b.probe_ttl == a.probe_ttl + 1) {
        seen.mark(a.address, 1);
        seen.mark(b.address, 1);
      }
    }
  }
  return seen.sorted(1);
}

}  // namespace mapit::trace
