// Loading a run's inputs: the one sequence behind `mapit run`, `snapshot`,
// `paths`, `stats` and the ingest base load. The trace corpus is streamed
// straight into the interface graph (§4.1–§4.3, graph/graph_input.h), so no
// trace is kept unless the caller asks for the sanitized rows; then come
// the RIB, the optional AS datasets and the IP2AS composite.
#pragma once

#include <memory>
#include <string>

#include "asdata/as2org.h"
#include "asdata/ixp.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "bgp/rib.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "graph/interface_graph.h"
#include "net/load_report.h"
#include "trace/sanitize.h"
#include "trace/trace.h"

namespace mapit::core {

/// A run's input files. Empty optional paths mean "absent", exactly like
/// the CLI's missing flags.
struct InputPaths {
  std::string traces;         ///< required
  std::string rib;            ///< empty: no RIB and no IP2AS (`mapit stats`)
  std::string relationships;
  std::string as2org;
  std::string ixps;
};

struct LoadOptions {
  unsigned threads = 1;          ///< 0 = one per hardware thread
  bool lenient = false;          ///< quarantine malformed trace/RIB lines
  bool keep_clean_rows = false;  ///< also keep the sanitized traces
};

/// A run's loaded inputs. `ip2as` points at `ixps`, so Inputs is heap-held
/// and immovable.
struct Inputs {
  Inputs() = default;
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  LoadReport trace_report;  ///< quarantined trace lines (lenient mode)
  LoadReport rib_report;    ///< quarantined RIB lines (lenient mode)
  trace::SanitizeStats sanitize;
  trace::TraceCorpus clean;  ///< the sanitized traces, if asked for
  bgp::Rib rib;
  asdata::AsRelationships rels;
  asdata::As2Org orgs;
  asdata::IxpRegistry ixps;
  std::unique_ptr<graph::InterfaceGraph> graph;
  std::unique_ptr<bgp::Ip2As> ip2as;  ///< null without a RIB
};

/// Loads every input in `paths`. Throws mapit::OpenError when a file cannot
/// be opened, and mapit::ParseError on a malformed line in strict mode.
[[nodiscard]] std::unique_ptr<Inputs> load_inputs(const InputPaths& paths,
                                                  const LoadOptions& options);

/// Identity of a run over `paths` with engine `options`, for checkpoints
/// and ingest journals: the config hash and the input files' fingerprints.
/// Presence markers keep "no file" distinct from "empty file" and from the
/// same bytes arriving under a different dataset slot.
[[nodiscard]] CheckpointMeta input_meta(const InputPaths& paths,
                                        const Options& options);

}  // namespace mapit::core
