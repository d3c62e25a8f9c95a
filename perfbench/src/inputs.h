// Benchmark inputs, generated from eval::ExperimentConfig and a seed. The
// program under test only ever sees these files and byte blocks.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct Args;

struct InputSet {
  std::string traces;         ///< whole corpus: base lines, then held-out
  std::string base;           ///< first 75% of the corpus
  std::string empty;          ///< a trace file with no traces
  std::string rib;
  std::string relationships;
  std::string as2org;
  std::string ixps;
  /// The held-out 25%, in order, as deltas of kDeltaTraces lines each
  /// (newline-terminated trace text, exactly as a tailer would hand over).
  std::vector<std::string> deltas;
  std::size_t trace_count = 0;
  std::size_t base_count = 0;
  std::uint64_t trace_bytes = 0;  ///< size of `traces`
};

inline constexpr std::size_t kDeltaTraces = 100;

/// Generates the inputs for `args.workload` into `dir`. The standard
/// topology is used throughout; cold_snapshot multiplies
/// simulation.monitor_count by 4. The generator runs in a child process
/// so none of its memory stays in this one.
[[nodiscard]] InputSet make_inputs(const Args& args,
                                   const std::filesystem::path& dir);

/// Writes the given trace lines (base plus the first `deltas` deltas) to
/// `path`: the corpus a cold build over base+deltas reads.
void write_base_plus(const InputSet& inputs, std::size_t deltas,
                     const std::string& path);

}  // namespace perfbench
