// Snapshot writer: turns a finished MAP-IT run into the binary artifact
// described in store/format.h.
//
// The writer is deliberately decoupled from the engine: it consumes a
// SnapshotData value (plain sorted vectors), which `make_snapshot_data`
// assembles from a core::Result + interface graph + Ip2As composite. Tests
// construct SnapshotData directly to exercise the format without running
// the pipeline.
//
// Determinism: serialization depends only on the record values — reserved
// bytes are zeroed, sections are emitted in a fixed order, and alignment
// padding is zero-filled — so identical runs produce byte-identical
// artifacts (StandardScaleTest pins the CRC of the standard run).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "asdata/asn.h"
#include "bgp/ip2as.h"
#include "fault/io.h"
#include "core/engine.h"
#include "core/links.h"
#include "graph/interface_graph.h"
#include "net/prefix.h"
#include "store/format.h"

namespace mapit::store {

/// Everything a snapshot serializes, already in section order. All vectors
/// must be sorted as documented in format.h; write_snapshot enforces this.
struct SnapshotData {
  std::vector<InferenceRecord> inferences;
  std::vector<LinkRecord> links;
  std::vector<PrefixRecord> bgp_prefixes;
  std::vector<PrefixRecord> fallback_prefixes;
  std::vector<MappingRecord> mappings;
};

/// Assembles SnapshotData from a run: confident + uncertain inferences
/// (flagged), aggregated links, the Ip2As composite's BGP and fallback
/// prefix layers, and the engine's final per-half mapping overrides.
[[nodiscard]] SnapshotData make_snapshot_data(const core::Result& result,
                                              const graph::InterfaceGraph& graph,
                                              const bgp::Ip2As& ip2as);

/// Record-level conversions (also used by tests and the query engine's
/// answer formatting).
[[nodiscard]] InferenceRecord to_record(const core::Inference& inference);
[[nodiscard]] LinkRecord to_record(const core::InterAsLink& link);
[[nodiscard]] PrefixRecord to_record(const net::Prefix& prefix,
                                     asdata::Asn asn);

/// Serializes the snapshot to bytes. Throws mapit::InvariantError when a
/// section violates its documented sort order.
[[nodiscard]] std::string serialize_snapshot(const SnapshotData& data);

struct WriteInfo {
  std::uint64_t bytes = 0;
  std::uint32_t payload_crc32 = 0;
};

/// Serializes and writes the artifact to `path` crash-safely: the bytes go
/// to `<path>.tmp.<pid>`, are fsynced, and are renamed into place (see
/// fault/atomic_file.h) — a crash or I/O failure at any point leaves
/// `path` holding either the complete old artifact or the complete new
/// one, never a torn file. Throws mapit::Error when any step fails.
/// `io` is the syscall boundary; tests inject faults through it.
WriteInfo write_snapshot_file(const SnapshotData& data,
                              const std::string& path,
                              fault::Io& io = fault::system_io());

}  // namespace mapit::store
