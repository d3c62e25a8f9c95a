// The three workloads, and the traced phases they share. Each untraced
// workload measures one end-to-end path; a traced run (--trace 1) walks
// the data through every layer: cold build -> delta ingest -> serving.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"

namespace perfbench {

// ---- cold build (cold_snapshot.cpp) ----------------------------------------

/// Output of the in-process replica of `mapit snapshot`.
struct ColdBuild {
  std::string bytes;  ///< store::serialize_snapshot of the result
  std::uint32_t crc = 0;
  std::size_t inferences = 0;
  double wall_s = 0;
};

/// The CLI's build_run_pipeline + cmd_snapshot, call for call, with
/// `--threads 1`: every layer call is a span. Writes the snapshot to
/// `out` as the CLI does. Per-layer counts go to `report` when traced.
[[nodiscard]] ColdBuild cold_build(const InputSet& inputs,
                                   const std::string& traces,
                                   const std::string& out, Tracer& tracer,
                                   Report* report);

[[nodiscard]] Report run_cold_snapshot(const Args& args,
                                       const InputSet& inputs,
                                       const std::filesystem::path& dir);

// ---- delta ingest (delta_ingest.cpp) ----------------------------------------

/// One base load followed by a replay of deltas through the runner's
/// flush order.
struct DeltaRound {
  double setup_s = 0;               ///< base load + first publish + hub open
  std::vector<double> swap_s;       ///< per delta: bytes in -> swapped in
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t traces_folded = 0;
  std::string final_bytes;          ///< the last published snapshot
  std::string base_snapshot;        ///< path: the first (base) publish
  std::string final_snapshot;       ///< path: the last publish
};

[[nodiscard]] DeltaRound replay_deltas(const InputSet& inputs,
                                       std::size_t deltas,
                                       const std::filesystem::path& dir,
                                       Tracer& tracer);

[[nodiscard]] Report run_delta_ingest(const Args& args, const InputSet& inputs,
                                      const std::filesystem::path& dir);

// ---- serving (serve_open_loop.cpp) -----------------------------------------

/// Serves `gen_a` with `mapit serve --async`, swapping `gen_b`/`gen_a` in
/// every 200 ms while an open-loop generator queries it at the reference
/// rate for `reference_seconds`, split over `segments` server processes.
/// Fills the end-to-end metrics of `report`, or, traced, climbs the rate
/// ladder too and fills the query-layer metrics.
void serve_phase(const Args& args, const std::string& gen_a,
                 const std::string& gen_b, const std::filesystem::path& dir,
                 double reference_seconds, int segments, Tracer& tracer,
                 Report& report);

[[nodiscard]] Report run_serve_open_loop(const Args& args,
                                         const InputSet& inputs,
                                         const std::filesystem::path& dir);

}  // namespace perfbench
