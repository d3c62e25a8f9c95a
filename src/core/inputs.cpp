#include "core/inputs.h"

#include <fstream>

#include "graph/graph_input.h"
#include "net/error.h"
#include "trace/trace_io.h"

namespace mapit::core {

namespace {

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) throw OpenError("cannot open " + path);
  return stream;
}

}  // namespace

std::unique_ptr<Inputs> load_inputs(const InputPaths& paths,
                                    const LoadOptions& options) {
  auto inputs = std::make_unique<Inputs>();
  LoadReport* trace_report = options.lenient ? &inputs->trace_report : nullptr;
  {
    auto stream = open_or_throw(paths.traces);
    if (options.keep_clean_rows) {
      const trace::TraceCorpus corpus =
          trace::read_corpus(stream, options.threads, trace_report);
      trace::SanitizeResult sanitized =
          trace::sanitize(corpus, options.threads);
      inputs->sanitize = sanitized.stats;
      inputs->graph = std::make_unique<graph::InterfaceGraph>(
          sanitized.clean, sanitized.all_addresses, options.threads);
      inputs->clean = std::move(sanitized.clean);
    } else {
      const graph::GraphInput digest =
          graph::digest_corpus(stream, options.threads, trace_report);
      inputs->sanitize = digest.stats;
      inputs->graph =
          std::make_unique<graph::InterfaceGraph>(digest, options.threads);
    }
  }
  if (!paths.rib.empty()) {
    auto stream = open_or_throw(paths.rib);
    inputs->rib = bgp::Rib::read(
        stream, options.lenient ? &inputs->rib_report : nullptr);
  }
  if (!paths.relationships.empty()) {
    auto stream = open_or_throw(paths.relationships);
    inputs->rels = asdata::AsRelationships::read(stream);
  }
  if (!paths.as2org.empty()) {
    auto stream = open_or_throw(paths.as2org);
    inputs->orgs = asdata::As2Org::read(stream);
  }
  if (!paths.ixps.empty()) {
    auto stream = open_or_throw(paths.ixps);
    inputs->ixps = asdata::IxpRegistry::read(stream);
  }
  if (!paths.rib.empty()) {
    inputs->ip2as = std::make_unique<bgp::Ip2As>(
        inputs->rib, net::PrefixTrie<asdata::Asn>{}, &inputs->ixps);
  }
  return inputs;
}

CheckpointMeta input_meta(const InputPaths& paths, const Options& options) {
  CheckpointMeta meta;
  meta.config_hash = config_hash(options);
  meta.corpus_fingerprint = fingerprint_file(paths.traces);
  meta.rib_fingerprint = fingerprint_file(paths.rib);
  std::uint64_t datasets = kFingerprintSeed;
  for (const std::string& path :
       {paths.relationships, paths.as2org, paths.ixps}) {
    datasets = fingerprint_bytes(datasets, path.empty() ? "-" : "+");
    if (!path.empty()) datasets = fingerprint_file(path, datasets);
  }
  meta.datasets_fingerprint = datasets;
  return meta;
}

}  // namespace mapit::core
