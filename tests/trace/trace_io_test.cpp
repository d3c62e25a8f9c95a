#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/error.h"
#include "test_util.h"

namespace mapit::trace {
namespace {

TEST(TraceIo, ParsesFullSyntax) {
  const Trace t =
      parse_trace("3|9.9.9.9|1.0.0.1 * 1.0.0.2@0 1.0.0.3@255");
  EXPECT_EQ(t.monitor, 3u);
  EXPECT_EQ(t.destination, testutil::addr("9.9.9.9"));
  ASSERT_EQ(t.hops.size(), 4u);
  EXPECT_EQ(t.hops[0].probe_ttl, 1);
  EXPECT_EQ(t.hops[0].address, testutil::addr("1.0.0.1"));
  EXPECT_FALSE(t.hops[0].quoted);
  EXPECT_FALSE(t.hops[1].responsive);
  EXPECT_EQ(t.hops[1].probe_ttl, 2);
  EXPECT_TRUE(t.hops[2].quoted);
  EXPECT_EQ(t.hops[2].quoted_ttl, 0);
  EXPECT_EQ(t.hops[3].quoted_ttl, 255);
}

TEST(TraceIo, EmptyHopList) {
  const Trace t = parse_trace("0|9.9.9.9|");
  EXPECT_TRUE(t.hops.empty());
}

TEST(TraceIo, FormatRoundTrip) {
  const char* line = "7|9.9.9.9|1.0.0.1 * 1.0.0.2@0 1.0.0.3@17";
  EXPECT_EQ(format_trace(parse_trace(line)), line);
}

class TraceIoBadInputTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceIoBadInputTest, Rejected) {
  EXPECT_THROW((void)parse_trace(GetParam()), mapit::ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, TraceIoBadInputTest,
    ::testing::Values("",                       // empty line
                      "3|9.9.9.9",              // missing hops field
                      "3|9.9.9.9|a|b",          // too many fields
                      "x|9.9.9.9|1.0.0.1",      // bad monitor
                      "3|nine|1.0.0.1",         // bad destination
                      "3|9.9.9.9|1.0.0",        // bad hop address
                      "3|9.9.9.9|1.0.0.1@",     // empty quoted TTL
                      "3|9.9.9.9|1.0.0.1@999",  // quoted TTL too big
                      "3|9.9.9.9|1.0.0.1@1x",   // junk quoted TTL
                      "3|9.9.9.9|1.0.0.1@1234"  // too many digits
                      ));

TEST(TraceIo, CorpusRoundTrip) {
  const TraceCorpus corpus = testutil::corpus_from({
      "0|9.9.9.9|1.0.0.1 1.0.0.2",
      "1|8.8.8.8|* * 2.0.0.1@0",
      "2|7.7.7.7|",
  });
  std::stringstream stream;
  write_corpus(stream, corpus);
  const TraceCorpus reread = read_corpus(stream);
  ASSERT_EQ(reread.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(reread.traces()[i], corpus.traces()[i]) << "trace " << i;
  }
}

TEST(TraceIo, ReadNamesOffendingLine) {
  std::stringstream stream("# ok\n0|9.9.9.9|1.0.0.1\ngarbage\n");
  try {
    (void)read_corpus(stream);
    FAIL() << "expected ParseError";
  } catch (const mapit::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// Every malformed variant from the Rejected suite above, embedded in a
// corpus: strict mode throws naming the right line; lenient mode skips it,
// counts it, and keeps the good neighbors.
class TraceIoLenientTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceIoLenientTest, StrictThrowsWithLineNumber) {
  std::stringstream stream("# header\n0|9.9.9.9|1.0.0.1\n" +
                           std::string(GetParam()) + "\n1|8.8.8.8|*\n");
  try {
    (void)read_corpus(stream);
    FAIL() << "expected ParseError for '" << GetParam() << "'";
  } catch (const mapit::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST_P(TraceIoLenientTest, LenientSkipsCountsAndKeepsTheRest) {
  std::stringstream stream("# header\n0|9.9.9.9|1.0.0.1\n" +
                           std::string(GetParam()) + "\n1|8.8.8.8|*\n");
  LoadReport report;
  const TraceCorpus corpus = read_corpus(stream, /*threads=*/1, &report);
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.traces()[0].monitor, 0u);
  EXPECT_EQ(corpus.traces()[1].monitor, 1u);
  EXPECT_EQ(report.skipped(), 1u);
  EXPECT_EQ(report.loaded(), 2u);
  ASSERT_EQ(report.offenders().size(), 1u);
  EXPECT_EQ(report.offenders()[0].line_no, 3u);
  // "# header\n" + "0|9.9.9.9|1.0.0.1\n" = 27 bytes before line 3.
  EXPECT_EQ(report.offenders()[0].byte_offset, 27u);
  EXPECT_NE(report.offenders()[0].error.find("line 3"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, TraceIoLenientTest,
    ::testing::Values("3|9.9.9.9",              // missing hops field
                      "3|9.9.9.9|a|b",          // too many fields
                      "x|9.9.9.9|1.0.0.1",      // bad monitor
                      "3|nine|1.0.0.1",         // bad destination
                      "3|9.9.9.9|1.0.0",        // bad hop address
                      "3|9.9.9.9|1.0.0.1@",     // empty quoted TTL
                      "3|9.9.9.9|1.0.0.1@999",  // quoted TTL too big
                      "3|9.9.9.9|1.0.0.1@1x",   // junk quoted TTL
                      "3|9.9.9.9|1.0.0.1@1234"  // too many digits
                      ));

TEST(TraceIo, LenientAllBadYieldsEmptyCorpus) {
  std::stringstream stream("junk\nmore junk\n");
  LoadReport report;
  const TraceCorpus corpus = read_corpus(stream, 1, &report);
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_EQ(report.skipped(), 2u);
  EXPECT_EQ(report.loaded(), 0u);
}

TEST(TraceIo, LenientCleanCorpusReportsNothing) {
  std::stringstream stream("0|9.9.9.9|1.0.0.1\n1|8.8.8.8|*\n");
  LoadReport report;
  const TraceCorpus corpus = read_corpus(stream, 1, &report);
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(report.skipped(), 0u);
  EXPECT_EQ(report.loaded(), 2u);
  EXPECT_EQ(report.summary("traces"), "");
}

TEST(TraceIo, RandomTraceRoundTrip) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::uint32_t> addr_dist(0x01000000,
                                                         0xDFFFFFFF);
  std::uniform_int_distribution<int> len_dist(0, 20);
  std::uniform_int_distribution<int> kind(0, 5);
  for (int i = 0; i < 50; ++i) {
    Trace t;
    t.monitor = static_cast<MonitorId>(i);
    t.destination = net::Ipv4Address(addr_dist(rng));
    const int hops = len_dist(rng);
    for (int h = 0; h < hops; ++h) {
      const auto ttl = static_cast<std::uint8_t>(h + 1);
      const int k = kind(rng);
      if (k == 0) {
        t.hops.push_back(TraceHop::silent(ttl));
        continue;
      }
      std::optional<std::uint8_t> quoted;
      if (k == 1) quoted = 0;
      if (k == 2) quoted = 1;
      t.hops.push_back(
          TraceHop::reply(ttl, net::Ipv4Address(addr_dist(rng)), quoted));
    }
    EXPECT_EQ(parse_trace(format_trace(t)), t);
  }
}

TEST(TraceIo, HopCountLimit) {
  std::string line = "0|9.9.9.9|";
  for (int i = 0; i < 255; ++i) line += i % 2 == 0 ? "1.0.0.1 " : "* ";
  const Trace t = parse_trace(line);
  ASSERT_EQ(t.hops.size(), 255u);
  EXPECT_EQ(t.hops.back().probe_ttl, 255);
  try {
    (void)parse_trace(line + "1.0.0.2", "ctx");
    FAIL() << "expected ParseError for a 256-hop line";
  } catch (const mapit::ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "ctx: more than 255 hops");
  }
}

TEST(TraceIo, ErrorDetailsNameTheToken) {
  const std::pair<const char*, const char*> cases[] = {
      {"3|9.9.9.9|a|b", "expected 'monitor|destination|hops'"},
      {"x|9.9.9.9|1.0.0.1", "bad monitor id 'x'"},
      {"3|nine|1.0.0.1", "bad destination 'nine'"},
      {"3|9.9.9.9|1.0.0.1 1.0.0", "bad address in hop '1.0.0'"},
      {"3|9.9.9.9|1.0.0@999", "quoted TTL out of range in hop '1.0.0@999'"},
      {"3|9.9.9.9|1.0.0.1@1x", "bad quoted TTL in hop '1.0.0.1@1x'"},
      {"3|9.9.9.9|*@1", "bad address in hop '*@1'"},
  };
  for (const auto& [line, detail] : cases) {
    try {
      (void)parse_trace(line, "ctx");
      FAIL() << line;
    } catch (const mapit::ParseError& e) {
      EXPECT_EQ(std::string(e.what()), std::string("ctx: ") + detail);
    }
  }
}

/// `text` with every '\n' turned into "\r\n".
std::string to_crlf(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') out.push_back('\r');
    out.push_back(c);
  }
  return out;
}

TEST(TraceIo, CrlfCorpusReadsLikeLf) {
  const std::string lf =
      "# header\n0|9.9.9.9|1.0.0.1 * 1.0.0.2@0\n\ngarbage\n"
      "1|8.8.8.8|1.0.0.3@255\n2|7.7.7.7|1.0.0.4 1.0.0\n3|6.6.6.6|";
  const std::string crlf = to_crlf(lf);
  for (const unsigned threads : {1u, 4u}) {
    std::istringstream lf_in(lf);
    std::istringstream crlf_in(crlf);
    LoadReport lf_report;
    LoadReport crlf_report;
    const TraceCorpus lf_corpus = read_corpus(lf_in, threads, &lf_report);
    const TraceCorpus crlf_corpus = read_corpus(crlf_in, threads, &crlf_report);
    EXPECT_EQ(lf_corpus.size(), 3u);
    EXPECT_TRUE(crlf_corpus == lf_corpus);
    EXPECT_EQ(crlf_report.loaded(), lf_report.loaded());
    EXPECT_EQ(crlf_report.skipped(), lf_report.skipped());
    ASSERT_EQ(lf_report.offenders().size(), 2u);
    ASSERT_EQ(crlf_report.offenders().size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      const auto& a = lf_report.offenders()[i];
      const auto& b = crlf_report.offenders()[i];
      EXPECT_EQ(b.line_no, a.line_no);
      // Offsets count the '\r's: each still points at its own line.
      EXPECT_EQ(b.byte_offset, a.byte_offset + (a.line_no - 1));
      EXPECT_EQ(crlf.substr(b.byte_offset, 7), lf.substr(a.byte_offset, 7));
      EXPECT_EQ(b.error.substr(b.error.find(')')),
                a.error.substr(a.error.find(')')));
    }
  }
  // Strict mode accepts the clean CRLF lines it used to reject.
  std::istringstream in(to_crlf("0|9.9.9.9|11.0.149.214\n"));
  EXPECT_EQ(read_corpus(in).size(), 1u);
  // Only one '\r' is a line ending; a second is part of the hop.
  std::istringstream twice("0|9.9.9.9|1.0.0.1\r\r\n");
  EXPECT_THROW((void)read_corpus(twice), mapit::ParseError);
}

TEST(TraceIo, LinesSpanningReadBlocks) {
  // Several read blocks' worth of lines of varying length, so lines
  // straddle block edges; one malformed line sits far in.
  std::string text;
  std::vector<std::string> lines;
  for (int i = 0; i < 20000; ++i) {
    std::string line = std::to_string(i) + "|9.9.9.9|";
    for (int h = 0; h <= i % 23; ++h) line += "1.0." + std::to_string(h) + ".1 ";
    lines.push_back(line);
    text += line + "\n";
  }
  const std::size_t bad = 15001;  // 1-based line number
  std::size_t bad_offset = 0;
  for (std::size_t i = 0; i + 1 < bad; ++i) bad_offset += lines[i].size() + 1;
  std::string dirty = text;
  dirty.replace(bad_offset, lines[bad - 1].size(), "bad line");
  for (const unsigned threads : {1u, 3u}) {
    std::istringstream in(text);
    const TraceCorpus corpus = read_corpus(in, threads);
    ASSERT_EQ(corpus.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); i += 997) {
      EXPECT_EQ(format_trace(corpus.traces()[i]) + " ", lines[i]);
    }
    std::istringstream dirty_in(dirty);
    try {
      (void)read_corpus(dirty_in, threads);
      FAIL() << "expected ParseError";
    } catch (const mapit::ParseError& e) {
      EXPECT_EQ(std::string(e.what()),
                "trace line 15001 (byte " + std::to_string(bad_offset) +
                    "): expected 'monitor|destination|hops'");
    }
  }
}

}  // namespace
}  // namespace mapit::trace
