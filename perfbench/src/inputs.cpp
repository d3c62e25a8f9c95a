#include "inputs.h"

#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common.h"
#include "eval/experiment.h"
#include "trace/trace_io.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace eval = mapit::eval;

eval::ExperimentConfig config_for(const Args& args) {
  eval::ExperimentConfig config = args.scale == "small"
                                      ? eval::ExperimentConfig::small()
                                      : eval::ExperimentConfig::standard();
  // The working set of cold_snapshot must dwarf the caches: 4x monitors
  // gives ~322k traces / ~46 MB of text at standard scale.
  if (args.workload == "cold_snapshot") config.simulation.monitor_count *= 4;
  // The topology stays the standard one (its default seed); --seed draws
  // the traceroute campaign and the dataset noise, with the seed
  // derivation of `mapit simulate --seed`.
  config.simulation.seed = args.seed ^ 0xFEEDu;
  config.dataset_seed = args.seed ^ 0xBEEFu;
  return config;
}

void write_or_throw(const fs::path& path, const auto& writer) {
  std::ofstream out(path, std::ios::binary);
  writer(out);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Runs in the forked child: simulate and write every input file.
void generate(const Args& args, const fs::path& dir) {
  const eval::ExperimentConfig config = config_for(args);
  const auto experiment = eval::Experiment::build(config);
  const auto& traces = experiment->raw_corpus().traces();
  const std::size_t base_count = traces.size() * 3 / 4;
  write_or_throw(dir / "traces.txt", [&](std::ostream& out) {
    for (const auto& trace : traces) out << mapit::trace::format_trace(trace) << '\n';
  });
  write_or_throw(dir / "base.txt", [&](std::ostream& out) {
    for (std::size_t i = 0; i < base_count; ++i) {
      out << mapit::trace::format_trace(traces[i]) << '\n';
    }
  });
  write_or_throw(dir / "heldout.txt", [&](std::ostream& out) {
    for (std::size_t i = base_count; i < traces.size(); ++i) {
      out << mapit::trace::format_trace(traces[i]) << '\n';
    }
  });
  write_or_throw(dir / "empty.txt", [](std::ostream&) {});
  write_or_throw(dir / "rib.txt", [&](std::ostream& out) {
    experiment->internet().export_rib(config.noise, config.dataset_seed).write(out);
  });
  write_or_throw(dir / "relationships.txt",
                 [&](std::ostream& out) { experiment->relationships().write(out); });
  write_or_throw(dir / "as2org.txt",
                 [&](std::ostream& out) { experiment->orgs().write(out); });
  write_or_throw(dir / "ixps.txt",
                 [&](std::ostream& out) { experiment->ixps().write(out); });
}

}  // namespace

InputSet make_inputs(const Args& args, const fs::path& dir) {
  fs::create_directories(dir);
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      generate(args, dir);
    } catch (const std::exception& error) {
      std::cerr << "perfbench: input generation failed: " << error.what() << "\n";
      code = 1;
    }
    std::cerr.flush();
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("input generation failed");
  }

  InputSet inputs;
  inputs.traces = (dir / "traces.txt").string();
  inputs.base = (dir / "base.txt").string();
  inputs.empty = (dir / "empty.txt").string();
  inputs.rib = (dir / "rib.txt").string();
  inputs.relationships = (dir / "relationships.txt").string();
  inputs.as2org = (dir / "as2org.txt").string();
  inputs.ixps = (dir / "ixps.txt").string();
  inputs.trace_bytes = fs::file_size(inputs.traces);

  std::ifstream base(inputs.base);
  for (std::string line; std::getline(base, line);) ++inputs.base_count;
  std::ifstream heldout(dir / "heldout.txt");
  std::string delta;
  std::size_t lines = 0;
  for (std::string line; std::getline(heldout, line);) {
    delta += line;
    delta += '\n';
    if (++lines % kDeltaTraces == 0) {
      inputs.deltas.push_back(std::move(delta));
      delta.clear();
    }
  }
  if (!delta.empty()) inputs.deltas.push_back(std::move(delta));
  inputs.trace_count = inputs.base_count + lines;
  return inputs;
}

void write_base_plus(const InputSet& inputs, std::size_t deltas,
                     const std::string& path) {
  write_or_throw(path, [&](std::ostream& out) {
    out << read_file(inputs.base);
    for (std::size_t i = 0; i < deltas && i < inputs.deltas.size(); ++i) {
      out << inputs.deltas[i];
    }
  });
}

}  // namespace perfbench
