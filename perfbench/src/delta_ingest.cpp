// delta_ingest: the base 75% loaded through ingest::IngestPipeline, then
// the held-out 25% replayed as ~100-trace deltas in the runner's flush
// order, closed-loop with one delta in flight.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/journal.h"
#include "ingest/pipeline.h"
#include "query/hub.h"
#include "trace/trace_io.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace core = mapit::core;

/// Every round replays the same deltas; three or more make the per-delta
/// median across rounds a median.
constexpr int kMinRounds = 3;

}  // namespace

DeltaRound replay_deltas(const InputSet& inputs, std::size_t deltas,
                         const fs::path& dir, Tracer& tracer) {
  fs::create_directories(dir);
  DeltaRound round;
  round.final_snapshot = (dir / "ingest.snap").string();
  round.base_snapshot = (dir / "ingest-base.snap").string();
  const std::string journal = (dir / "ingest.journal").string();
  for (const std::string& path : {round.final_snapshot, round.base_snapshot, journal}) {
    fs::remove(path);
  }

  mapit::ingest::IngestSetup setup;
  setup.traces_path = inputs.base;
  setup.rib_path = inputs.rib;
  setup.relationships_path = inputs.relationships;
  setup.as2org_path = inputs.as2org;
  setup.ixps_path = inputs.ixps;
  setup.options.threads = 1;

  std::unique_ptr<mapit::ingest::IngestPipeline> pipeline;
  std::unique_ptr<mapit::query::SnapshotHub> hub;
  const auto setup_started = Clock::now();
  {
    Span span(tracer, "ingest.setup");
    {
      Span load(tracer, "ingest.base_load");
      pipeline = std::make_unique<mapit::ingest::IngestPipeline>(setup);
    }
    {
      Span publish(tracer, "ingest.first_publish");
      (void)pipeline->publish(round.final_snapshot);
    }
    {
      Span open(tracer, "query.hub_open");
      hub = std::make_unique<mapit::query::SnapshotHub>(round.final_snapshot);
    }
  }
  round.setup_s = seconds_between(setup_started, Clock::now());
  // Keep the base generation: publish renames each new snapshot over the
  // old path, so the link preserves the first one.
  fs::create_hard_link(round.final_snapshot, round.base_snapshot);

  core::JournalWriter writer = core::JournalWriter::open(journal, pipeline->meta());
  std::uint64_t offset = 0;
  std::uint64_t folded = 0;
  const std::size_t count = std::min(deltas, inputs.deltas.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& bytes = inputs.deltas[i];
    ++round.attempted;
    try {
      Span span(tracer, "ingest.delta");
      const auto started = Clock::now();
      mapit::trace::TraceCorpus corpus;
      {
        Span parse(tracer, "ingest.parse");
        std::istringstream in(bytes);
        corpus = mapit::trace::read_corpus(in, 1);
      }
      {
        Span journal_span(tracer, "ingest.journal");
        for (std::size_t pos = 0; pos < bytes.size();) {
          const std::size_t newline = bytes.find('\n', pos);
          writer.append(core::JournalRecord::trace(
              offset + pos, bytes.substr(pos, newline - pos)));
          pos = newline + 1;
        }
        writer.sync();
      }
      {
        Span fold(tracer, "ingest.fold");
        pipeline->fold(corpus);
      }
      mapit::store::WriteInfo info;
      {
        Span publish(tracer, "ingest.publish");
        info = pipeline->publish(round.final_snapshot);
      }
      folded += corpus.size();
      {
        Span commit(tracer, "ingest.commit");
        writer.append(core::JournalRecord::commit(i + 1, folded, info.payload_crc32));
        writer.sync();
      }
      bool swapped = false;
      {
        Span refresh(tracer, "query.hub_refresh");
        swapped = hub->refresh();
      }
      const auto finished = Clock::now();
      offset += bytes.size();
      if (!swapped) {
        ++round.failed;
        std::cerr << "perfbench: delta " << i << ": refresh() did not swap ("
                  << hub->last_error() << ")\n";
        continue;
      }
      round.swap_s.push_back(seconds_between(started, finished));
    } catch (const std::exception& error) {
      ++round.failed;
      std::cerr << "perfbench: delta " << i << " failed: " << error.what() << "\n";
    }
  }
  writer.close();
  round.traces_folded = folded;
  round.final_bytes = read_file(round.final_snapshot);
  return round;
}

namespace {

/// What a round run in a child process reports back through a pipe.
struct RoundResult {
  double setup_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t equivalent = 0;  ///< final snapshot == the cold build's
  std::vector<double> swap_s;
  double maxrss_mb = 0;
};

void write_all(int fd, const std::string& bytes) {
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("pipe write failed");
    done += static_cast<std::size_t>(n);
  }
}

/// Runs one round (base load + every delta) in a forked child, so each
/// round gets a fresh process: a process's speed on the shared host
/// depends on where its memory and threads land, and one process per run
/// would carry that into every round of the run.
RoundResult round_in_child(const InputSet& inputs, const fs::path& dir,
                           const std::string& cold_bytes) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const auto started = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      Tracer off(false);
      const DeltaRound round = replay_deltas(inputs, inputs.deltas.size(), dir, off);
      const std::uint64_t header[4] = {round.attempted, round.failed,
                                       round.final_bytes == cold_bytes ? 1u : 0u,
                                       round.swap_s.size()};
      std::string out(sizeof(double) + sizeof(header), '\0');
      std::memcpy(out.data(), &round.setup_s, sizeof(double));
      std::memcpy(out.data() + sizeof(double), header, sizeof(header));
      out.append(reinterpret_cast<const char*>(round.swap_s.data()),
                 round.swap_s.size() * sizeof(double));
      write_all(fds[1], out);
    } catch (const std::exception& error) {
      std::cerr << "perfbench: ingest round failed: " << error.what() << "\n";
      code = 1;
    }
    std::cerr.flush();
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[65536];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  const ChildExit exit = reap(pid, started);
  RoundResult result;
  std::uint64_t header[4] = {};
  if (!exit.ok() || bytes.size() < sizeof(double) + sizeof(header)) {
    throw std::runtime_error("ingest round process failed");
  }
  std::memcpy(&result.setup_s, bytes.data(), sizeof(double));
  std::memcpy(header, bytes.data() + sizeof(double), sizeof(header));
  result.attempted = header[0];
  result.failed = header[1];
  result.equivalent = header[2];
  if (bytes.size() != sizeof(double) + sizeof(header) + header[3] * sizeof(double)) {
    throw std::runtime_error("ingest round process sent a short report");
  }
  result.swap_s.resize(header[3]);
  std::memcpy(result.swap_s.data(), bytes.data() + sizeof(double) + sizeof(header),
              header[3] * sizeof(double));
  result.maxrss_mb = exit.maxrss_mb;
  return result;
}

}  // namespace

Report run_delta_ingest(const Args& args, const InputSet& inputs,
                        const fs::path& dir) {
  Report report;

  // The equivalence gate's reference: `mapit snapshot` over base + every
  // delta, i.e. the whole corpus file.
  const std::string cold = (dir / "cold.snap").string();
  const ChildExit child =
      run_child(snapshot_argv(args, inputs, inputs.traces, cold), "",
                (dir / "cold.err").string());
  if (!child.ok()) report.fail_gate("cold `mapit snapshot` failed");
  const std::string cold_bytes = child.ok() ? read_file(cold) : std::string();

  // Every round replays the same deltas, so each delta is measured once
  // per round. Its latency is the median over rounds, which drops the
  // bursts of the shared machine's memory traffic that hit one
  // measurement; p50 and p95 are then taken over the deltas.
  std::vector<double> setup;
  std::vector<std::vector<double>> per_delta(inputs.deltas.size());
  std::vector<double> rss;
  const auto started = Clock::now();
  while (static_cast<int>(setup.size()) < kMinRounds ||
         seconds_between(started, Clock::now()) < args.seconds) {
    const RoundResult round = round_in_child(inputs, dir / "round", cold_bytes);
    setup.push_back(round.setup_s);
    // A round with a failed delta has fewer samples than deltas; the run
    // is already failed, so its samples need no alignment.
    for (std::size_t i = 0; i < round.swap_s.size() && i < per_delta.size(); ++i) {
      per_delta[i].push_back(round.swap_s[i]);
    }
    rss.push_back(round.maxrss_mb);
    // Each delta is one operation, and so is each round's equivalence
    // check of its final snapshot against the cold build.
    report.attempted += round.attempted + 1;
    report.failed += round.failed;
    if (round.equivalent == 0) {
      ++report.failed;
      std::cerr << "perfbench: ingest result differs from the cold build\n";
    }
  }
  if (report.failed > 0) report.fail_gate("failed deltas or equivalence check");

  std::vector<double> swaps;
  std::vector<double> pooled;
  for (const std::vector<double>& samples : per_delta) {
    swaps.push_back(median(samples));
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  report.note("deltas_per_round", static_cast<double>(inputs.deltas.size()));
  report.note("rounds", static_cast<double>(setup.size()));
  report.note("samples", static_cast<double>(pooled.size()));
  report.note("tail_percentile", "p95 over deltas of each delta's median over rounds");
  report.note("p95_pooled_ms", quantile(pooled, 0.95) * 1e3);
  report.metric("setup_s", median(setup), "s");
  report.metric("latency_p50_ms", median(swaps) * 1e3, "ms");
  report.metric("latency_tail_ms", quantile(swaps, 0.95) * 1e3, "ms");
  report.metric("peak_rss_mb", median(rss), "MB");
  return report;
}

}  // namespace perfbench
