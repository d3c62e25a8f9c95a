// Fuzz target: trace::read_corpus — the traceroute text parser, in both
// strict and lenient modes.
//
// Contract under fuzzing: arbitrary bytes either parse or raise
// mapit::Error. Anything else escaping (raw std exceptions, UB caught by
// the sanitizers) is a finding. Lenient mode additionally must never throw
// for line-level damage — it quarantines into the LoadReport instead.
// Two equivalences abort on a mismatch: a corpus the strict reader accepts
// must survive write_corpus -> read_corpus unchanged, and a lenient read
// that quarantined nothing must equal the strict read.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include "net/error.h"
#include "net/load_report.h"
#include "trace/trace_io.h"

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
  return 0;
}
