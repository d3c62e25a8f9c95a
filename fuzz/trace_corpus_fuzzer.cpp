// Fuzz target: trace::read_corpus — the traceroute text parser, in both
// strict and lenient modes — and graph::digest_corpus, which streams the
// same bytes straight into the interface graph's input.
//
// Contract under fuzzing: arbitrary bytes either parse or raise
// mapit::Error. Anything else escaping (raw std exceptions, UB caught by
// the sanitizers) is a finding. Lenient mode additionally must never throw
// for line-level damage — it quarantines into the LoadReport instead.
// Three equivalences abort on a mismatch: a corpus the strict reader
// accepts must survive write_corpus -> read_corpus unchanged; a lenient
// read that quarantined nothing must equal the strict read; and at threads
// 1 and 3, in both modes, the streamed digest must equal read_corpus ->
// sanitize -> InterfaceGraph: the same edges, address population,
// sanitizing counts, LoadReport and strict-mode error.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_input.h"
#include "graph/interface_graph.h"
#include "net/error.h"
#include "net/load_report.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace {

using mapit::LoadReport;
using mapit::graph::InterfaceGraph;

/// Everything a load yields, flattened for comparison.
struct Load {
  std::optional<std::string> error;
  std::vector<std::uint64_t> edges;
  std::vector<mapit::net::Ipv4Address> all_addresses;
  std::vector<std::size_t> counts;  // SanitizeStats and LoadReport counters
  std::vector<std::string> offenders;

  bool operator==(const Load&) const = default;
};

void finish(Load& load, const mapit::trace::SanitizeStats& stats,
            const LoadReport& report) {
  load.counts = {stats.input_traces,      stats.discarded_traces,
                 stats.removed_ttl0_hops, stats.input_addresses,
                 stats.retained_addresses, report.loaded(),
                 report.skipped()};
  for (const LoadReport::Offender& o : report.offenders()) {
    load.offenders.push_back(std::to_string(o.line_no) + ":" +
                             std::to_string(o.byte_offset) + ":" + o.error);
  }
}

std::vector<std::uint64_t> edges_of(const InterfaceGraph& graph) {
  std::vector<std::uint64_t> edges;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto id = static_cast<mapit::graph::HalfId>(2 * i);
    for (mapit::graph::HalfId n : graph.neighbor_ids(id)) {
      edges.push_back(std::uint64_t{graph.address_at(id).value()} << 32 |
                      graph.address_at(n).value());
    }
  }
  return edges;
}

Load row_pipeline(const std::string& text, unsigned threads, bool lenient) {
  Load load;
  LoadReport report;
  try {
    std::istringstream in(text);
    const auto corpus = mapit::trace::read_corpus(in, threads,
                                                  lenient ? &report : nullptr);
    const auto sanitized = mapit::trace::sanitize(corpus, threads);
    load.edges = edges_of(
        InterfaceGraph(sanitized.clean, sanitized.all_addresses, threads));
    load.all_addresses = sanitized.all_addresses;
    finish(load, sanitized.stats, report);
  } catch (const mapit::ParseError& error) {
    load.error = error.what();
  }
  return load;
}

Load streamed(const std::string& text, unsigned threads, bool lenient) {
  Load load;
  LoadReport report;
  try {
    std::istringstream in(text);
    const auto input = mapit::graph::digest_corpus(
        in, threads, lenient ? &report : nullptr);
    if (edges_of(InterfaceGraph(input, threads)) != input.edges) std::abort();
    load.edges = input.edges;
    load.all_addresses = input.all_addresses;
    finish(load, input.stats, report);
  } catch (const mapit::ParseError& error) {
    load.error = error.what();
  }
  return load;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::optional<mapit::trace::TraceCorpus> strict;
  try {
    std::istringstream in(text);
    strict = mapit::trace::read_corpus(in, /*threads=*/1);
  } catch (const mapit::Error&) {
    // Expected rejection path.
  }
  if (strict) {
    std::stringstream written;
    mapit::trace::write_corpus(written, *strict);
    if (!(mapit::trace::read_corpus(written, 1) == *strict)) std::abort();
  }
  {
    std::istringstream in(text);
    mapit::LoadReport report;
    const auto corpus = mapit::trace::read_corpus(in, /*threads=*/1, &report);
    // Exercise the quarantine summary formatting too.
    (void)report.summary("traces");
    if (report.skipped() == 0 && !(strict && corpus == *strict)) std::abort();
  }
  for (const bool lenient : {false, true}) {
    const Load want = row_pipeline(text, 1, lenient);
    for (const unsigned threads : {1u, 3u}) {
      if (!(streamed(text, threads, lenient) == want)) std::abort();
    }
  }
  return 0;
}
