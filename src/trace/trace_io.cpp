#include "trace/trace_io.h"

#include <istream>
#include <optional>
#include <ostream>
#include <vector>

#include "net/error.h"
#include "net/parse.h"
#include "parallel/thread_pool.h"

namespace mapit::trace {

namespace {

/// Bytes each worker parses per read: cache-sized, a few thousand lines.
constexpr std::size_t kBlockBytes = std::size_t{1} << 18;
constexpr std::size_t kNpos = std::string_view::npos;

std::string bad(std::string_view what, std::string_view text) {
  return std::string(what) + " '" + std::string(text) + "'";
}

/// Parses one hop token at `ttl` into `out`; returns the error on failure.
std::optional<std::string> parse_hop(std::string_view token, std::uint8_t ttl,
                                     TraceCorpus& out) {
  if (token == "*") {
    out.push_hop(TraceHop::silent(ttl));
    return std::nullopt;
  }
  const std::size_t at = std::min(token.find('@'), token.size());
  std::optional<std::uint8_t> quoted_ttl;
  if (at < token.size()) {
    const std::string_view digits = token.substr(at + 1);
    const auto value =
        digits.size() > 3 ? std::nullopt : net::parse_uint<unsigned>(digits);
    if (!value) return bad("bad quoted TTL in hop", token);
    if (*value > 255) return bad("quoted TTL out of range in hop", token);
    quoted_ttl = static_cast<std::uint8_t>(*value);
  }
  const auto address = net::Ipv4Address::parse(token.substr(0, at));
  if (!address) return bad("bad address in hop", token);
  out.push_hop(TraceHop::reply(ttl, *address, quoted_ttl));
  return std::nullopt;
}

/// Parses one line straight into `out`'s columns. On failure, returns the
/// error and leaves `out` as it was.
std::optional<std::string> parse_line(std::string_view line,
                                      TraceCorpus& out) {
  const std::size_t bar1 = line.find('|');
  const std::size_t bar2 = bar1 == kNpos ? kNpos : line.find('|', bar1 + 1);
  if (bar2 == kNpos || line.find('|', bar2 + 1) != kNpos) {
    return "expected 'monitor|destination|hops'";
  }
  const auto monitor = net::parse_uint<MonitorId>(line.substr(0, bar1));
  if (!monitor) return bad("bad monitor id", line.substr(0, bar1));
  const std::string_view destination_text =
      line.substr(bar1 + 1, bar2 - bar1 - 1);
  const auto destination = net::Ipv4Address::parse(destination_text);
  if (!destination) return bad("bad destination", destination_text);
  std::uint8_t ttl = 0;
  for (std::size_t pos = bar2 + 1; pos < line.size();) {
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    const std::string_view token = line.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    auto error = ttl == 255 ? std::optional<std::string>("more than 255 hops")
                            : parse_hop(token, ++ttl, out);
    if (error) {
      out.drop_open_hops();
      return error;
    }
  }
  out.close_trace(*monitor, *destination);
  return std::nullopt;
}

/// One worker's share of a block: the traces it parsed, and its failures
/// with line numbers and byte offsets relative to the chunk.
struct Chunk {
  TraceCorpus traces;
  std::size_t lines = 0;
  std::vector<LoadReport::Offender> failures;
};

void parse_chunk(std::string_view text, bool strict, Chunk& chunk) {
  chunk.traces.clear();
  chunk.lines = 0;
  chunk.failures.clear();
  for (std::size_t pos = 0; pos < text.size(); ++chunk.lines) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, end - pos);
    if (line.ends_with('\r')) line.remove_suffix(1);  // CRLF line ending
    if (!line.empty() && line[0] != '#') {
      if (auto error = parse_line(line, chunk.traces)) {
        chunk.failures.push_back({chunk.lines, pos, std::move(*error)});
        if (strict) return;
      }
    }
    pos = end + 1;
  }
}

/// The one block reader behind stream_corpus and read_corpus. Reads `in`
/// in blocks and cuts each into one line-aligned chunk per worker. Worker c
/// parses chunk c and calls on_chunk(c, traces) on its own thread. Then,
/// on the calling thread, the failures are merged in file order (strict
/// mode throws the first) and on_block(chunks) runs.
template <class OnChunk, class OnBlock>
void read_blocks(std::istream& in, unsigned threads, LoadReport* report,
                 const OnChunk& on_chunk, const OnBlock& on_block) {
  const unsigned workers = parallel::resolve_threads(threads);
  std::optional<parallel::ThreadPool> pool;
  std::vector<Chunk> chunks(workers);
  std::string buffer;       // a carried-over partial line, then a new block
  std::size_t line_no = 0;  // lines before `buffer`
  std::size_t offset = 0;   // bytes before `buffer`
  std::size_t loaded = 0;
  for (bool eof = false; !eof;) {
    const std::size_t carried = buffer.size();
    const std::size_t want = kBlockBytes * workers;
    buffer.resize(carried + want);
    in.read(buffer.data() + carried, static_cast<std::streamsize>(want));
    buffer.resize(carried + static_cast<std::size_t>(in.gcount()));
    eof = buffer.size() < carried + want;
    // Parse through the last complete line, or to the end once input ends;
    // the carried bytes hold no '\n'.
    const std::size_t newline =
        std::string_view(buffer).substr(carried).rfind('\n');
    const std::size_t ready =
        eof ? buffer.size() : newline == kNpos ? 0 : carried + newline + 1;
    // One chunk per worker, each cut at the first line start at or past an
    // equal share of the bytes.
    const std::string_view text(buffer.data(), ready);
    std::vector<std::size_t> cuts{0};
    for (unsigned w = 1; w <= workers; ++w) {
      const std::size_t start = std::max(cuts.back(), ready * w / workers);
      const std::size_t at = start == 0 ? kNpos : text.find('\n', start - 1);
      cuts.push_back(at == kNpos ? ready : at + 1);
    }
    if (!pool && cuts[1] < ready) pool.emplace(workers);
    parallel::for_ranges(
        pool ? &*pool : nullptr, workers,
        [&](unsigned, std::size_t begin, std::size_t end) {
          for (std::size_t c = begin; c < end; ++c) {
            parse_chunk(text.substr(cuts[c], cuts[c + 1] - cuts[c]),
                        report == nullptr, chunks[c]);
            on_chunk(static_cast<unsigned>(c), chunks[c].traces);
          }
        });
    // Merge in file order. Every chunk before the first failure parsed
    // cleanly, so in strict mode that failure is the sequential reader's.
    // Only failed lines pay for their error context.
    for (std::size_t c = 0; c < workers; ++c) {
      for (LoadReport::Offender& failure : chunks[c].failures) {
        failure.line_no += line_no + 1;
        failure.byte_offset += offset + cuts[c];
        std::string message = "trace line " + std::to_string(failure.line_no) +
                              " (byte " + std::to_string(failure.byte_offset) +
                              "): " + failure.error;
        if (report == nullptr) throw ParseError(message);
        report->record(failure.line_no, failure.byte_offset,
                       std::move(message));
      }
      line_no += chunks[c].lines;
      loaded += chunks[c].traces.size();
    }
    on_block(chunks);
    offset += ready;
    buffer.erase(0, ready);
  }
  if (report != nullptr) report->add_loaded(loaded);
}

}  // namespace

std::string format_trace(TraceRow trace) {
  std::string out = std::to_string(trace.monitor);
  out.push_back('|');
  out += trace.destination.to_string();
  out.push_back('|');
  for (const TraceHop& hop : trace.hops) {
    if (&hop != trace.hops.data()) out.push_back(' ');
    if (!hop.responsive) {
      out.push_back('*');
      continue;
    }
    out += hop.address.to_string();
    if (hop.quoted) out += "@" + std::to_string(hop.quoted_ttl);
  }
  return out;
}

Trace parse_trace(std::string_view line, std::string_view context) {
  TraceCorpus one;
  if (auto error = parse_line(line, one)) {
    throw ParseError(std::string(context) + ": " + *error);
  }
  const TraceRow row = one.row(0);
  return {row.monitor, row.destination, {row.hops.begin(), row.hops.end()}};
}

void write_corpus(std::ostream& out, const TraceCorpus& corpus) {
  out << "# mapit trace corpus v1: monitor|destination|hop hop ...\n";
  for (const TraceRow trace : corpus.traces()) {
    out << format_trace(trace) << '\n';
  }
}

void stream_corpus(std::istream& in, unsigned threads, LoadReport* report,
                   const RowSink& sink) {
  read_blocks(in, threads, report, sink, [](const std::vector<Chunk>&) {});
}

TraceCorpus read_corpus(std::istream& in, unsigned threads,
                        LoadReport* report) {
  TraceCorpus corpus;
  read_blocks(
      in, threads, report, [](unsigned, const TraceCorpus&) {},
      [&](const std::vector<Chunk>& chunks) {
        for (const Chunk& chunk : chunks) corpus.append(chunk.traces);
      });
  return corpus;
}

}  // namespace mapit::trace
