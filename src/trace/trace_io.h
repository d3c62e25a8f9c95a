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

#include <functional>
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

/// Receives the traces stream_corpus parses: `worker`'s share of one block,
/// valid only during the call.
using RowSink =
    std::function<void(unsigned worker, const TraceCorpus& traces)>;

/// Reads a corpus written by write_corpus (or hand-authored in the same
/// format) without keeping it. A line may end in CRLF: its '\r' is
/// dropped, but still counted in byte offsets.
///
/// The stream is read in fixed-size blocks, and each block is cut into one
/// line-aligned chunk per worker (`threads` workers: 0 = one per hardware
/// thread, 1 = the sequential reader). Worker w < resolve_threads(threads)
/// parses its chunk and passes the well-formed traces to sink(w, traces)
/// on its own thread, so the calls for one block run concurrently and each
/// worker sees its own chunks in file order. Every call for a block
/// returns before the next block is read.
///
/// Strict mode (`report == nullptr`) throws mapit::ParseError naming the
/// first offending line. Lenient mode (`report != nullptr`) quarantines
/// instead: malformed lines are skipped and counted into `*report` (line
/// numbers ascending), and every well-formed line is passed on. Both are
/// identical for every thread count: the strict-mode error is the one the
/// sequential reader would hit first, and the LoadReport is the sequential
/// reader's exactly. In strict mode the sink may already have seen traces
/// from after the offending line when the error is thrown.
void stream_corpus(std::istream& in, unsigned threads, LoadReport* report,
                   const RowSink& sink);

/// stream_corpus, keeping every well-formed trace in file order. The result
/// is byte-identical for every thread count.
[[nodiscard]] TraceCorpus read_corpus(std::istream& in, unsigned threads = 1,
                                      LoadReport* report = nullptr);

}  // namespace mapit::trace
