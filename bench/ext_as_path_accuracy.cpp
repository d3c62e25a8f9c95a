// Extension experiment: AS-level traceroute path accuracy (the §1
// motivation "more precisely identifying the ASes traversed on a
// traceroute path").
//
// For a sample of traces, compares three AS-path derivations against the
// forwarding plane's true router-path AS sequence:
//   naive     — prefix-based IP2AS per hop (Fig 1's mistake),
//   MAP-IT    — PathAnnotator using the converged inferences.
// Reported per category: fraction of traces whose whole AS path is exact.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/as_path.h"
#include "route/as_routing.h"
#include "route/forwarder.h"
#include "tracesim/simulator.h"

int main() {
  using namespace mapit;
  benchutil::print_header(
      "Extension: AS-level path accuracy, naive IP2AS vs MAP-IT (f = 0.5)");

  const auto experiment =
      eval::Experiment::build(eval::ExperimentConfig::standard());
  core::Options options;
  options.f = 0.5;
  const core::Result result = experiment->run_mapit(options);
  const core::PathAnnotator annotator(result, experiment->ip2as());

  route::AsRouting routing(experiment->internet().true_relationships());
  route::Forwarder forwarder(experiment->internet(), routing);
  tracesim::TracerouteSimulator simulator(experiment->internet(), forwarder,
                                          experiment->config().simulation);

  std::size_t compared = 0, naive_exact = 0, inferred_exact = 0;
  std::size_t naive_extra_as = 0, inferred_extra_as = 0;
  for (std::size_t i = 0; i < experiment->corpus().size(); i += 11) {
    const trace::TraceRow t = experiment->corpus().traces()[i];
    const auto path =
        forwarder.path(simulator.monitors()[t.monitor].source_router,
                       t.destination, 0);
    if (path.empty()) continue;
    std::vector<asdata::Asn> truth;
    for (const route::RouterHop& hop : path) {
      const asdata::Asn owner = experiment->internet().router(hop.router).owner;
      if (truth.empty() || truth.back() != owner) truth.push_back(owner);
    }
    const core::AnnotatedPath annotated = annotator.annotate(t);
    ++compared;
    if (annotated.naive_as_path == truth) ++naive_exact;
    if (annotated.as_path == truth) ++inferred_exact;
    if (annotated.naive_as_path.size() > truth.size()) ++naive_extra_as;
    if (annotated.as_path.size() > truth.size()) ++inferred_extra_as;
  }

  std::printf("traces compared                 : %zu\n", compared);
  std::printf("exact AS path, naive IP2AS      : %5.1f%%\n",
              100.0 * static_cast<double>(naive_exact) /
                  static_cast<double>(compared));
  std::printf("exact AS path, MAP-IT annotated : %5.1f%%\n",
              100.0 * static_cast<double>(inferred_exact) /
                  static_cast<double>(compared));
  std::printf("false extra AS, naive           : %5.1f%%\n",
              100.0 * static_cast<double>(naive_extra_as) /
                  static_cast<double>(compared));
  std::printf("false extra AS, MAP-IT          : %5.1f%%\n",
              100.0 * static_cast<double>(inferred_extra_as) /
                  static_cast<double>(compared));
  std::printf("\nexpected shape: MAP-IT annotation fixes a large share of the\n"
              "boundary mislabelings (Fig 1's false-AS problem) that prefix\n"
              "IP2AS produces; residual misses come from artifact traces.\n");
  return 0;
}
