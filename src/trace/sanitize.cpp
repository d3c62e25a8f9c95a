#include "trace/sanitize.h"

#include <optional>

#include "parallel/thread_pool.h"
#include "trace/address_table.h"

namespace mapit::trace {

SanitizeResult sanitize(const TraceCorpus& corpus, unsigned threads) {
  // The cycle check is per trace, so workers run it over disjoint ranges;
  // one sequential pass then strips, compacts and counts both populations.
  std::vector<char> kept(corpus.size());
  const unsigned resolved = parallel::resolve_threads(threads);
  std::optional<parallel::ThreadPool> pool;
  if (resolved > 1 && corpus.size() > 1) pool.emplace(resolved);
  parallel::for_ranges(
      pool ? &*pool : nullptr, corpus.size(),
      [&](unsigned, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          kept[i] = !has_interface_cycle(corpus.row(i), /*skip_ttl0=*/true);
        }
      });

  constexpr std::uint8_t kSeen = 1;      // responds in the input
  constexpr std::uint8_t kRetained = 2;  // responds in a kept, unstripped hop
  SanitizeResult result;
  result.stats.input_traces = corpus.size();
  AddressTable addresses;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const TraceRow trace = corpus.row(i);
    for (const TraceHop& hop : trace.hops) {
      const bool retained = kept[i] && !hop.quotes_ttl0();
      if (hop.quotes_ttl0()) ++result.stats.removed_ttl0_hops;
      if (hop.responsive) {
        addresses.mark(hop.address, retained ? kSeen | kRetained : kSeen);
      }
      if (retained) result.clean.push_hop(hop);
    }
    if (kept[i]) {
      result.clean.close_trace(trace.monitor, trace.destination);
    } else {
      ++result.stats.discarded_traces;
    }
  }
  result.all_addresses = addresses.sorted(kSeen);
  result.stats.input_addresses = result.all_addresses.size();
  result.stats.retained_addresses = addresses.sorted(kRetained).size();
  return result;
}

}  // namespace mapit::trace
