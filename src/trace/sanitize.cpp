#include "trace/sanitize.h"

#include <optional>

#include "parallel/thread_pool.h"

namespace mapit::trace {

void RowSanitizer::merge(const RowSanitizer& other) {
  stats_.input_traces += other.stats_.input_traces;
  stats_.discarded_traces += other.stats_.discarded_traces;
  stats_.removed_ttl0_hops += other.stats_.removed_ttl0_hops;
  addresses_.merge(other.addresses_);
}

SanitizeStats RowSanitizer::stats() const {
  SanitizeStats stats = stats_;
  stats.input_addresses = addresses_.count(kSeen);
  stats.retained_addresses = addresses_.count(kRetained);
  return stats;
}

SanitizeResult sanitize(const TraceCorpus& corpus, unsigned threads) {
  // Each worker sanitizes a contiguous range into its own clean corpus, so
  // concatenating them in worker order keeps the input order.
  const unsigned resolved = parallel::resolve_threads(threads);
  std::optional<parallel::ThreadPool> pool;
  if (resolved > 1 && corpus.size() > 1) pool.emplace(resolved);
  std::vector<RowSanitizer> sanitizers(resolved);
  std::vector<TraceCorpus> clean(resolved);
  parallel::for_ranges(
      pool ? &*pool : nullptr, corpus.size(),
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        TraceCorpus& out = clean[worker];
        for (std::size_t i = begin; i < end; ++i) {
          const TraceRow row = corpus.row(i);
          if (sanitizers[worker].add(
                  row, [&](const TraceHop& hop) { out.push_hop(hop); })) {
            out.close_trace(row.monitor, row.destination);
          }
        }
      });
  SanitizeResult result;
  result.clean = std::move(clean[0]);
  for (unsigned w = 1; w < resolved; ++w) {
    result.clean.append(clean[w]);
    sanitizers[0].merge(sanitizers[w]);
  }
  result.stats = sanitizers[0].stats();
  result.all_addresses = sanitizers[0].all_addresses();
  return result;
}

}  // namespace mapit::trace
