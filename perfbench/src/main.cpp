// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload cold_snapshot|delta_ingest|serve_open_loop
//             --seed N --seconds S --trace 0|1 --mapit PATH
//             --work-dir DIR [--trace-out FILE] [--scale standard|small]
//
// Prints an environment line and then, as the last line of stdout, the
// result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones of the workload; with --trace 1 the run
// walks the workload's inputs through every layer (cold build, delta
// ingest, serving) with a span around each layer call, prints the
// per-layer metrics and writes the spans as Chrome trace-event JSON.
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Deltas replayed by a traced run whose workload is not delta_ingest:
/// enough to time every ingest stage without dominating the run.
constexpr std::size_t kProbeDeltas = 20;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload cold_snapshot|delta_ingest|"
               "serve_open_loop --seed N --seconds S --trace 0|1 --mapit PATH "
               "--work-dir DIR [--trace-out FILE] [--scale standard|small]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--scale") args.scale = value;
      else if (flag == "--work-dir") args.work_dir = value;
      else if (flag == "--trace-out") args.trace_out = value;
      else if (flag == "--mapit") args.mapit = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "cold_snapshot" && args.workload != "delta_ingest" &&
      args.workload != "serve_open_loop") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.scale != "standard" && args.scale != "small") usage("bad --scale");
  if (args.mapit.empty() || args.work_dir.empty()) {
    usage("--mapit and --work-dir are required");
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

void add_ms(Report& report, const Tracer& tracer, const std::string& span,
            const std::string& metric) {
  report.metric(metric, median(tracer.durations_s(span)) * 1e3, "ms");
}

/// The traced run: cold build -> delta ingest -> serving over one input
/// set, each a top-level span. The workload's own phase runs at full size.
Report traced_run(const Args& args, const InputSet& inputs, const fs::path& dir) {
  Report report;
  Tracer tracer(true);
  const auto started = Clock::now();

  std::uint64_t gates_failed = 0;
  ColdBuild cold;
  {
    Span phase(tracer, "phase.cold_snapshot");
    cold = cold_build(inputs, inputs.traces, (dir / "replica.snap").string(),
                      tracer, &report);
  }
  {
    // The same build through the CLI: the byte gate, and the untraced
    // wall time the tracing overhead is measured against.
    Span span(tracer, "bench.cli_snapshot");
    const std::string out = (dir / "cli.snap").string();
    const ChildExit child = run_child(
        snapshot_argv(args, inputs, inputs.traces, out), "",
        (dir / "cli.err").string());
    if (!child.ok() || read_file(out) != cold.bytes) {
      ++gates_failed;
      report.fail_gate("CLI snapshot differs from the traced replica");
    }
    report.note("trace_overhead_s", cold.wall_s - child.wall_s);
  }

  const std::size_t deltas = args.workload == "delta_ingest"
                                 ? inputs.deltas.size()
                                 : std::min(kProbeDeltas, inputs.deltas.size());
  DeltaRound round;
  {
    Span phase(tracer, "phase.delta_ingest");
    round = replay_deltas(inputs, deltas, dir / "round", tracer);
  }
  {
    Span span(tracer, "bench.ingest_gate");
    std::string expected = cold.bytes;
    if (deltas < inputs.deltas.size()) {
      const std::string traces = (dir / "base_plus.txt").string();
      const std::string out = (dir / "base_plus.snap").string();
      write_base_plus(inputs, deltas, traces);
      expected = run_child(snapshot_argv(args, inputs, traces, out)).ok()
                     ? read_file(out)
                     : std::string();
    }
    if (round.failed > 0 || round.final_bytes != expected) {
      ++gates_failed;
      report.fail_gate("ingest result differs from the cold build");
    }
  }

  {
    Span phase(tracer, "phase.serve_open_loop");
    fs::create_directories(dir / "serve");
    serve_phase(args, round.base_snapshot, round.final_snapshot, dir / "serve",
                1, 1, tracer, report);
  }
  const double wall = seconds_between(started, Clock::now());

  report.attempted += round.attempted + 2;  // + the two byte gates
  report.failed += round.failed + gates_failed;

  const auto seconds = [&](const std::string& span, const std::string& metric) {
    report.metric(metric, tracer.total_s(span), "s");
  };
  seconds("trace.read_corpus", "trace.read_corpus_s");
  seconds("trace.sanitize", "trace.sanitize_s");
  seconds("trace.distinct_addresses", "trace.distinct_addresses_s");
  seconds("bgp.rib_read", "bgp.rib_read_s");
  seconds("bgp.ip2as_build", "bgp.ip2as_build_s");
  seconds("asdata.read", "asdata.read_s");
  seconds("graph.build", "graph.build_s");
  seconds("core.engine", "core.engine_s");
  seconds("core.add_step", "core.add_step_s");
  seconds("core.remove_step", "core.remove_step_s");
  seconds("core.finish", "core.finish_s");
  report.metric("store.make_data_ms", tracer.total_s("store.make_data") * 1e3, "ms");
  report.metric("store.write_ms", tracer.total_s("store.write") * 1e3, "ms");
  add_ms(report, tracer, "store.open", "store.open_ms");
  add_ms(report, tracer, "ingest.parse", "ingest.parse_ms");
  add_ms(report, tracer, "ingest.journal", "ingest.journal_ms");
  add_ms(report, tracer, "ingest.fold", "ingest.fold_ms");
  add_ms(report, tracer, "ingest.publish", "ingest.publish_ms");
  add_ms(report, tracer, "ingest.commit", "ingest.commit_ms");
  add_ms(report, tracer, "query.hub_refresh", "query.hub_refresh_ms");
  report.metric("ingest.deltas",
                static_cast<double>(tracer.durations_s("ingest.delta").size()),
                "count");
  report.metric("ingest.traces_folded", static_cast<double>(round.traces_folded),
                "count");

  const double coverage = tracer.top_level_s() / wall;
  report.note("traced_wall_s", wall);
  report.note("top_level_span_coverage", coverage);
  report.note("trace_file", args.trace_out.string());
  if (!args.trace_out.empty()) {
    fs::create_directories(fs::absolute(args.trace_out).parent_path());
    tracer.write_chrome(args.trace_out, environment_json(args, report));
  }
  return report;
}

int run(const Args& args) {
  const fs::path dir = args.work_dir;
  fs::create_directories(dir);
  const auto generating = Clock::now();
  const InputSet inputs = make_inputs(args, dir / "inputs");
  const double generation_s = seconds_between(generating, Clock::now());
  Report report;
  if (args.trace) {
    report = traced_run(args, inputs, dir);
  } else if (args.workload == "cold_snapshot") {
    report = run_cold_snapshot(args, inputs, dir);
  } else if (args.workload == "delta_ingest") {
    report = run_delta_ingest(args, inputs, dir);
  } else {
    report = run_serve_open_loop(args, inputs, dir);
  }
  report.note("input_traces", static_cast<double>(inputs.trace_count));
  report.note("input_trace_bytes", static_cast<double>(inputs.trace_bytes));
  report.note("input_generation_s", generation_s);
  fs::remove_all(dir);
  if (report.failed > 0) report.correct = false;
  print_report(args, report);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    std::error_code ignored;
    std::filesystem::remove_all(args.work_dir, ignored);
    return 1;
  }
}
