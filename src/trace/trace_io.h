// Text serialization for traceroute corpora.
//
// Line format (one trace per line, '#' comments and blank lines allowed):
//
//   <monitor_id>|<destination>|<hop> <hop> ...
//
// where each hop is one of
//   *                unresponsive hop
//   A.B.C.D          response, no quoted TTL recorded
//   A.B.C.D@Q        response with quoted TTL Q (0..255)
//
// Hops are listed in probe-TTL order starting at TTL 1; a '*' keeps the TTL
// counter advancing, matching how traceroute output is read.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "net/load_report.h"
#include "trace/trace.h"

namespace mapit::trace {

/// Serializes one trace to its line representation (no trailing newline).
[[nodiscard]] std::string format_trace(TraceRow trace);

/// Parses one line. Throws mapit::ParseError with `context` on failure.
[[nodiscard]] Trace parse_trace(std::string_view line,
                                std::string_view context = "trace");

/// Writes the whole corpus, one trace per line, with a header comment.
void write_corpus(std::ostream& out, const TraceCorpus& corpus);

/// Reads a corpus written by write_corpus (or hand-authored in the same
/// format). A line may end in CRLF: its '\r' is dropped, but still counted
/// in byte offsets.
///
/// Strict mode (`report == nullptr`, the default) throws mapit::ParseError
/// naming the first offending line. Lenient mode (`report != nullptr`)
/// quarantines instead: malformed lines are skipped and counted into
/// `*report` (line numbers ascending), and every well-formed line loads.
///
/// The stream is read in fixed-size blocks; `threads` workers (0 = one per
/// hardware thread, 1 = the sequential reader) parse line-aligned chunks of
/// each block concurrently. The result is byte-identical for every thread
/// count: traces keep file order, the strict-mode error is the one the
/// sequential reader would hit first, and the lenient-mode LoadReport is
/// the sequential reader's report exactly.
[[nodiscard]] TraceCorpus read_corpus(std::istream& in, unsigned threads = 1,
                                      LoadReport* report = nullptr);

}  // namespace mapit::trace
