// Differential baseline sweep: MAP-IT vs the paper's §5.6 heuristics
// across an artifact-rate × seed grid of synthetic experiments.
//
// Each grid cell builds one Experiment (small scale), scales the three
// traceroute artifact probabilities by the cell's rate — rate 0 is the
// clean-room regime, rate 1 the artifact-storm regime of the config-sweep
// test — runs MAP-IT plus the Simple and Convention baselines over the
// SAME corpus, and verifies all three against the exact R&E ground truth.
// The result is a machine-readable report whose integer fields (tp/fp/fn
// per engine, iteration counts, inference counts) are bit-deterministic
// for a given grid: the pipeline is seeded end to end and MAP-IT's output
// is thread-count- and compiler-invariant (pinned by the equivalence
// tests), so CI can diff a fresh report against the committed
// DIFF_sweep.json exactly — any disagreement is real engine/baseline
// drift, not noise.
//
// Resumability rides the PR 5 checkpoint primitives: the sweep state file
// opens with a fingerprint of the grid (core::fingerprint_bytes over a
// canonical encoding of rates and seeds) and carries one line per
// completed cell; it is rewritten through fault::write_file_atomic after
// every cell, so a killed sweep resumes at the first unfinished cell and
// a state file from a *different* grid is discarded, never misapplied.
// A completed sweep removes its state file, and a state holding every cell
// is recomputed rather than resumed: the fingerprint pins the grid, not the
// code, so only an interrupted sweep may be resumed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "eval/metrics.h"

namespace mapit::eval {

struct DiffSweepCell {
  double rate = 0.0;        ///< artifact-rate multiplier in [0, 1]
  std::uint64_t seed = 0;   ///< experiment seed (topology/simulation/datasets)
  Metrics mapit;            ///< MAP-IT claims vs exact R&E truth
  Metrics simple;           ///< Simple heuristic on the same corpus
  Metrics convention;       ///< Convention heuristic on the same corpus
  bool converged = false;   ///< MAP-IT reached a repeated state
  int iterations = 0;       ///< outer add/remove iterations
  std::uint64_t inferences = 0;  ///< confident MAP-IT inferences

  friend bool operator==(const DiffSweepCell&,
                         const DiffSweepCell&) = default;
};

struct DiffSweepOptions {
  std::vector<double> rates{0.0, 0.5, 1.0};
  std::vector<std::uint64_t> seeds{7, 9};
  /// Path of the resumable state file; empty disables resume.
  std::string state_path;
  /// Engine worker threads (0 = one per core; output-invariant).
  unsigned threads = 1;
  /// Per-cell progress lines (cell coordinates + timings); may be null.
  std::ostream* progress = nullptr;
};

struct DiffSweepReport {
  std::vector<DiffSweepCell> cells;  ///< sorted by (rate, seed)
};

/// Identity of the sweep grid; the state-file header pins it so resumes
/// can never mix cells from different grids.
[[nodiscard]] std::uint64_t grid_fingerprint(const DiffSweepOptions& options);

/// Runs every cell of the grid (resuming completed cells from
/// `options.state_path` when it exists and matches the grid), removes the
/// state file once every cell is done, and returns the full report.
/// Throws mapit::Error on unusable state files.
[[nodiscard]] DiffSweepReport run_diff_sweep(const DiffSweepOptions& options);

/// Serializes the report as pretty-printed JSON (stable field order, LF
/// line endings) — the format of the committed DIFF_sweep.json.
[[nodiscard]] std::string format_diff_sweep_json(const DiffSweepReport& report);

/// Parses exactly the rigid one-cell-per-line JSON format_diff_sweep_json
/// emits (the committed DIFF_sweep.json). Throws mapit::Error naming
/// `context` on any malformed cell line.
[[nodiscard]] DiffSweepReport parse_diff_sweep_json(std::istream& in,
                                                    const std::string& context);

/// Compares two reports cell by cell on every integer field. Returns
/// human-readable drift descriptions; empty means exact agreement.
[[nodiscard]] std::vector<std::string> diff_sweep_drift(
    const DiffSweepReport& baseline, const DiffSweepReport& fresh);

}  // namespace mapit::eval
