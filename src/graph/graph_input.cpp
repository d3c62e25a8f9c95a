#include "graph/graph_input.h"

#include <algorithm>

#include "net/special_purpose.h"
#include "parallel/thread_pool.h"
#include "trace/trace_io.h"

namespace mapit::graph {

void EdgeSet::grow() {
  std::vector<std::uint64_t> old(std::max<std::size_t>(1024, 2 * slots_.size()));
  old.swap(slots_);
  used_ = 0;
  for (std::uint64_t edge : old) {
    if (edge != 0) insert(edge);
  }
}

void EdgeSet::merge(const EdgeSet& other) {
  for (std::uint64_t edge : other.slots_) {
    if (edge != 0) insert(edge);
  }
}

void GraphDigest::add_raw(trace::TraceRow row) {
  const trace::TraceHop* previous = nullptr;
  sanitizer_.add(row, [&](const trace::TraceHop& hop) {
    if (previous != nullptr) add_pair(*previous, hop);
    previous = &hop;
  });
}

void GraphDigest::add_sanitized(trace::TraceRow row) {
  for (std::size_t i = 0; i + 1 < row.hops.size(); ++i) {
    add_pair(row.hops[i], row.hops[i + 1]);
  }
}

void GraphDigest::merge(const GraphDigest& other) {
  sanitizer_.merge(other.sanitizer_);
  edges_.merge(other.edges_);
}

GraphInput GraphDigest::finish() const {
  GraphInput input;
  for (std::uint64_t edge : edges_.slots()) {
    // Private/shared addresses are excluded from Ns (§4.3): a per-edge
    // test, so it runs once per unique edge instead of once per hop pair.
    if (edge != 0 &&
        !net::is_special_purpose(
            net::Ipv4Address(static_cast<std::uint32_t>(edge >> 32))) &&
        !net::is_special_purpose(
            net::Ipv4Address(static_cast<std::uint32_t>(edge)))) {
      input.edges.push_back(edge);
    }
  }
  std::sort(input.edges.begin(), input.edges.end());
  input.all_addresses = sanitizer_.all_addresses();
  input.stats = sanitizer_.stats();
  return input;
}

GraphInput digest_corpus(std::istream& in, unsigned threads,
                         LoadReport* report) {
  std::vector<GraphDigest> digests(parallel::resolve_threads(threads));
  trace::stream_corpus(
      in, threads, report,
      [&](unsigned worker, const trace::TraceCorpus& traces) {
        for (const trace::TraceRow row : traces.traces()) {
          digests[worker].add_raw(row);
        }
      });
  for (std::size_t w = 1; w < digests.size(); ++w) {
    digests[0].merge(digests[w]);
  }
  return digests[0].finish();
}

GraphInput sanitized_input(const trace::TraceCorpus& sanitized,
                           std::span<const net::Ipv4Address> all_addresses) {
  GraphDigest digest;
  for (const trace::TraceRow row : sanitized.traces()) {
    digest.add_sanitized(row);
  }
  GraphInput input = digest.finish();
  input.all_addresses.assign(all_addresses.begin(), all_addresses.end());
  std::sort(input.all_addresses.begin(), input.all_addresses.end());
  input.all_addresses.erase(
      std::unique(input.all_addresses.begin(), input.all_addresses.end()),
      input.all_addresses.end());
  return input;
}

}  // namespace mapit::graph
