// cold_snapshot: `mapit snapshot` over the 4x-monitor standard corpus, one
// process per iteration, timed and measured with wait4.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "asdata/as2org.h"
#include "asdata/ixp.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "bgp/rib.h"
#include "core/engine.h"
#include "graph/interface_graph.h"
#include "store/reader.h"
#include "store/writer.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace asdata = mapit::asdata;
namespace bgp = mapit::bgp;
namespace core = mapit::core;
namespace store = mapit::store;

std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return in;
}

constexpr int kSetupRuns = 5;
constexpr int kMinIterations = 3;
constexpr int kOpenRuns = 5;

}  // namespace

ColdBuild cold_build(const InputSet& inputs, const std::string& traces,
                     const std::string& out, Tracer& tracer, Report* report) {
  const auto started = Clock::now();
  ColdBuild build;

  mapit::trace::TraceCorpus corpus;
  {
    Span span(tracer, "trace.read_corpus");
    auto in = open_input(traces);
    corpus = mapit::trace::read_corpus(in, 1);
  }
  bgp::Rib rib;
  {
    Span span(tracer, "bgp.rib_read");
    auto in = open_input(inputs.rib);
    rib = bgp::Rib::read(in);
  }
  asdata::AsRelationships rels;
  asdata::As2Org orgs;
  asdata::IxpRegistry ixps;
  {
    Span span(tracer, "asdata.read");
    auto rels_in = open_input(inputs.relationships);
    rels = asdata::AsRelationships::read(rels_in);
    auto orgs_in = open_input(inputs.as2org);
    orgs = asdata::As2Org::read(orgs_in);
    auto ixps_in = open_input(inputs.ixps);
    ixps = asdata::IxpRegistry::read(ixps_in);
  }
  mapit::trace::SanitizeResult sanitized;
  {
    Span span(tracer, "trace.sanitize");
    sanitized = mapit::trace::sanitize(corpus, 1);
  }
  std::vector<mapit::net::Ipv4Address> all_addresses;
  {
    Span span(tracer, "trace.distinct_addresses");
    all_addresses = corpus.distinct_addresses();
  }
  std::unique_ptr<mapit::graph::InterfaceGraph> graph;
  {
    Span span(tracer, "graph.build");
    graph = std::make_unique<mapit::graph::InterfaceGraph>(sanitized.clean,
                                                          all_addresses, 1);
  }
  std::unique_ptr<bgp::Ip2As> ip2as;
  {
    Span span(tracer, "bgp.ip2as_build");
    ip2as = std::make_unique<bgp::Ip2As>(
        rib, mapit::net::PrefixTrie<asdata::Asn>{}, &ixps);
  }

  std::optional<core::Result> result;
  {
    Span span(tracer, "core.engine");
    core::Options options;
    options.threads = 1;
    core::Engine engine(*graph, *ip2as, orgs, rels, options);
    // The engine reports each add and remove step at its boundary. The
    // converging iteration's remove step has no boundary after it, so it
    // lands in core.finish with the stub step and result collection.
    auto mark = Clock::now();
    core::RunControl control;
    control.on_boundary = [&](core::RunBoundary boundary, int) {
      const auto now = Clock::now();
      tracer.add(boundary == core::RunBoundary::kAfterAddStep
                     ? "core.add_step"
                     : "core.remove_step",
                 mark, now);
      mark = now;
      return true;
    };
    core::RunOutcome outcome = engine.run_controlled(control);
    tracer.add("core.finish", mark, Clock::now());
    result = std::move(outcome.result);
  }

  store::SnapshotData data;
  {
    Span span(tracer, "store.make_data");
    data = store::make_snapshot_data(*result, *graph, *ip2as);
  }
  store::WriteInfo info;
  {
    Span span(tracer, "store.write");
    info = store::write_snapshot_file(data, out);
  }
  build.wall_s = seconds_between(started, Clock::now());
  build.crc = info.payload_crc32;
  build.inferences = result->inferences.size();
  {
    Span span(tracer, "bench.serialize_for_gate");
    build.bytes = store::serialize_snapshot(data);
  }

  if (report != nullptr) {
    for (int i = 0; i < kOpenRuns; ++i) {
      Span span(tracer, "store.open");
      const auto reader = store::SnapshotReader::open(out);
      if (reader.payload_crc32() != info.payload_crc32) {
        report->fail_gate("reopened snapshot has a different CRC");
      }
    }
    const core::EngineStats& stats = result->stats;
    report->metric("trace.traces", static_cast<double>(corpus.size()), "count");
    report->metric("trace.discarded",
                   static_cast<double>(sanitized.stats.discarded_traces), "count");
    report->metric("trace.addresses", static_cast<double>(all_addresses.size()),
                   "count");
    report->metric("graph.interfaces", static_cast<double>(graph->size()), "count");
    report->metric("core.iterations", stats.iterations, "count");
    report->metric("core.add_passes", stats.add_passes, "count");
    report->metric("core.inferences", static_cast<double>(build.inferences),
                   "count");
    report->metric(
        "core.removed_ratio",
        stats.direct_made == 0
            ? 0.0
            : static_cast<double>(stats.demoted_in_remove_step +
                                  stats.removed_in_remove_step) /
                  static_cast<double>(stats.direct_made),
        "ratio");
    report->metric("store.bytes", static_cast<double>(info.bytes), "bytes");
  }
  return build;
}

Report run_cold_snapshot(const Args& args, const InputSet& inputs,
                         const fs::path& dir) {
  Report report;
  Tracer off(false);
  const std::string out = (dir / "cli.snap").string();
  const std::string stdout_path = (dir / "cli.out").string();
  const std::string stderr_path = (dir / "cli.err").string();

  // The gate's reference: the in-process replica's snapshot bytes.
  const ColdBuild reference =
      cold_build(inputs, inputs.traces, (dir / "replica.snap").string(), off,
                 nullptr);

  // Set-up: a snapshot run over the same datasets and no traces is the
  // fixed cost (process start, dataset loads, empty graph and engine)
  // every snapshot run pays before its per-trace work.
  std::vector<double> setup;
  for (int i = 0; i < kSetupRuns; ++i) {
    const ChildExit child = run_child(
        snapshot_argv(args, inputs, inputs.empty, (dir / "setup.snap").string()),
        "", stderr_path);
    if (!child.ok()) report.fail_gate("empty-corpus snapshot run failed");
    setup.push_back(child.wall_s);
  }

  std::vector<double> walls;
  std::vector<double> rss;
  std::vector<double> cpu;
  const auto started = Clock::now();
  while (static_cast<int>(walls.size()) < kMinIterations ||
         seconds_between(started, Clock::now()) < args.seconds) {
    const ChildExit child = run_child(
        snapshot_argv(args, inputs, inputs.traces, out), stdout_path, stderr_path);
    ++report.attempted;
    walls.push_back(child.wall_s);
    rss.push_back(child.maxrss_mb);
    cpu.push_back(child.cpu_s);
    if (!child.ok()) {
      ++report.failed;
      std::cerr << "perfbench: mapit snapshot exited with status "
                << child.status << "\n";
      continue;
    }
    if (read_file(out) != reference.bytes) {
      ++report.failed;
      std::cerr << "perfbench: CLI snapshot bytes differ from the replica's\n";
    }
  }
  if (report.failed > 0) report.fail_gate("failed snapshot runs");

  std::cerr << "cold_snapshot: crc32 " << crc_hex(reference.crc) << ", "
            << reference.inferences << " inferences; CLI said: "
            << read_file(stdout_path);
  report.note("snapshot_crc32", crc_hex(reference.crc));
  report.note("inferences", static_cast<double>(reference.inferences));
  report.note("samples", static_cast<double>(walls.size()));
  report.note("cpu_p50_ms", median(cpu) * 1e3);
  report.note("setup_samples", static_cast<double>(setup.size()));

  // A run holds too few iterations for a percentile with ten samples
  // beyond it, so the tail is the slowest iteration.
  report.note("tail_percentile", "max");
  report.metric("setup_s", median(setup), "s");
  report.metric("latency_p50_ms", median(walls) * 1e3, "ms");
  report.metric("latency_tail_ms", quantile(walls, 1.0) * 1e3, "ms");
  report.metric("peak_rss_mb", median(rss), "MB");
  return report;
}

}  // namespace perfbench
