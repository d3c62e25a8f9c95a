#include "ingest/pipeline.h"

#include "graph/graph_input.h"

namespace mapit::ingest {

IngestPipeline::IngestPipeline(const IngestSetup& setup)
    : options_(setup.options) {
  const core::InputPaths paths{setup.traces_path, setup.rib_path,
                               setup.relationships_path, setup.as2org_path,
                               setup.ixps_path};
  inputs_ = core::load_inputs(paths, {.threads = options_.threads,
                                      .lenient = setup.lenient});
  // Identity of the base run, fingerprinted exactly like the checkpoint
  // family, so a journal is rejected the moment any base input byte
  // changed underneath it.
  meta_ = core::input_meta(paths, options_);
}

void IngestPipeline::fold(const trace::TraceCorpus& raw_delta) {
  if (raw_delta.empty()) return;
  delta_traces_ += raw_delta.size();
  // The delta's raw addresses join the witness population: the other-side
  // heuristic must see the addresses of traces the sanitizer discards.
  graph::GraphDigest digest;
  for (const trace::TraceRow row : raw_delta.traces()) digest.add_raw(row);
  inputs_->graph->fold(digest.finish(), options_.threads);
}

core::Result IngestPipeline::run() const {
  return core::run_mapit(*inputs_->graph, *inputs_->ip2as, inputs_->orgs,
                         inputs_->rels, options_);
}

store::WriteInfo IngestPipeline::publish(const std::string& path,
                                         fault::Io& io) {
  const core::Result result = run();
  const store::SnapshotData data =
      store::make_snapshot_data(result, *inputs_->graph, *inputs_->ip2as);
  return store::write_snapshot_file(data, path, io);
}

std::string IngestPipeline::serialize() const {
  const core::Result result = run();
  return store::serialize_snapshot(
      store::make_snapshot_data(result, *inputs_->graph, *inputs_->ip2as));
}

}  // namespace mapit::ingest
