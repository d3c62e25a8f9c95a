#include "eval/diff_sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "baselines/claims.h"
#include "baselines/simple.h"
#include "core/checkpoint.h"
#include "eval/experiment.h"
#include "fault/atomic_file.h"
#include "net/error.h"

namespace mapit::eval {

namespace {

constexpr char kStateMagic[] = "mapit-diff-sweep-state-v1";

// Artifact probabilities at rate 1.0 — the config-sweep test's
// artifact_storm regime; rate 0.0 is its clean-room simulation half.
constexpr double kMaxLbProb = 0.08;
constexpr double kMaxFlapProb = 0.08;
constexpr double kMaxLossProb = 0.05;

/// Shortest round-trippable decimal for a rate (17 significant digits
/// reparse to the same double; trailing-zero trimming keeps 0.5 as "0.5").
[[nodiscard]] std::string format_rate(double rate) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", rate);
  double reparsed = 0;
  for (int precision = 1; precision <= 16; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, rate);
    std::sscanf(candidate, "%lf", &reparsed);
    if (reparsed == rate) return candidate;
  }
  return buffer;
}

[[nodiscard]] DiffSweepCell run_cell(double rate, std::uint64_t seed,
                                     unsigned threads) {
  ExperimentConfig config = ExperimentConfig::small();
  // Mirror `mapit simulate`'s seed derivation so a sweep seed corresponds
  // to the same synthetic world the CLI writes to disk.
  config.topology.seed = seed;
  config.simulation.seed = seed ^ 0xFEEDu;
  config.dataset_seed = seed ^ 0xBEEFu;
  config.simulation.per_packet_lb_prob = rate * kMaxLbProb;
  config.simulation.route_flap_prob = rate * kMaxFlapProb;
  config.simulation.hop_loss_prob = rate * kMaxLossProb;

  const auto experiment = Experiment::build(config);
  core::Options options;
  options.f = 0.5;
  options.threads = threads;
  const core::Result result = experiment->run_mapit(options);
  const AsGroundTruth truth =
      experiment->ground_truth(topo::Generator::rne_asn());
  const Evaluator& evaluator = experiment->evaluator();

  DiffSweepCell cell;
  cell.rate = rate;
  cell.seed = seed;
  cell.mapit =
      evaluator.verify(truth, baselines::claims_from_result(result)).total;
  cell.simple =
      evaluator
          .verify(truth, baselines::simple_heuristic(experiment->corpus(),
                                                     experiment->ip2as()))
          .total;
  cell.convention =
      evaluator
          .verify(truth, baselines::convention_heuristic(
                             experiment->corpus(), experiment->ip2as(),
                             experiment->relationships()))
          .total;
  cell.converged = result.stats.converged;
  cell.iterations = result.stats.iterations;
  cell.inferences = result.inferences.size();
  return cell;
}

void append_metrics(std::ostream& out, const Metrics& m) {
  out << m.tp << ' ' << m.fp << ' ' << m.fn;
}

[[nodiscard]] std::string encode_state(std::uint64_t fingerprint,
                                       const std::vector<DiffSweepCell>& done) {
  std::ostringstream out;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  out << kStateMagic << ' ' << hex << '\n';
  for (const DiffSweepCell& cell : done) {
    out << format_rate(cell.rate) << ' ' << cell.seed << ' ';
    append_metrics(out, cell.mapit);
    out << ' ';
    append_metrics(out, cell.simple);
    out << ' ';
    append_metrics(out, cell.convention);
    out << ' ' << (cell.converged ? 1 : 0) << ' ' << cell.iterations << ' '
        << cell.inferences << '\n';
  }
  return out.str();
}

/// Loads completed cells from a state file. Returns empty when the file is
/// absent or belongs to a different grid (stale state is discarded, never
/// misapplied); throws mapit::Error on a syntactically damaged file.
[[nodiscard]] std::vector<DiffSweepCell> load_state(
    const std::string& path, std::uint64_t fingerprint) {
  std::ifstream in(path);
  if (!in) return {};
  std::string magic;
  std::string fp_hex;
  if (!(in >> magic >> fp_hex) || magic != kStateMagic) {
    throw Error("diff-sweep state file is damaged: " + path);
  }
  char expected[17];
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  if (fp_hex != expected) return {};  // different grid: start fresh
  std::vector<DiffSweepCell> done;
  DiffSweepCell cell;
  int converged = 0;
  while (in >> cell.rate >> cell.seed >> cell.mapit.tp >> cell.mapit.fp >>
         cell.mapit.fn >> cell.simple.tp >> cell.simple.fp >> cell.simple.fn >>
         cell.convention.tp >> cell.convention.fp >> cell.convention.fn >>
         converged >> cell.iterations >> cell.inferences) {
    cell.converged = converged != 0;
    done.push_back(cell);
  }
  if (!in.eof()) {
    throw Error("diff-sweep state file has a malformed cell line: " + path);
  }
  return done;
}

void json_metrics(std::ostream& out, const char* name, const Metrics& m) {
  out << "\"" << name << "\": {\"tp\": " << m.tp << ", \"fp\": " << m.fp
      << ", \"fn\": " << m.fn << "}";
}

}  // namespace

std::uint64_t grid_fingerprint(const DiffSweepOptions& options) {
  // Canonical encoding: rates and seeds in sweep order. The artifact-rate
  // scale factors are part of the grid identity — changing what rate 1.0
  // means must invalidate old state files.
  std::ostringstream encoded;
  encoded << "rates:";
  for (const double rate : options.rates) encoded << format_rate(rate) << ',';
  encoded << ";seeds:";
  for (const std::uint64_t seed : options.seeds) encoded << seed << ',';
  encoded << ";max:" << format_rate(kMaxLbProb) << ','
          << format_rate(kMaxFlapProb) << ',' << format_rate(kMaxLossProb);
  return core::fingerprint_bytes(core::kFingerprintSeed, encoded.str());
}

DiffSweepReport run_diff_sweep(const DiffSweepOptions& options) {
  if (options.rates.empty() || options.seeds.empty()) {
    throw Error("diff sweep needs at least one rate and one seed");
  }
  for (const double rate : options.rates) {
    if (!(rate >= 0.0) || !(rate <= 1.0)) {
      throw Error("diff-sweep rate out of [0, 1]: " + format_rate(rate));
    }
  }
  const std::uint64_t fingerprint = grid_fingerprint(options);
  const std::size_t total = options.rates.size() * options.seeds.size();
  std::vector<DiffSweepCell> done;
  if (!options.state_path.empty()) {
    done = load_state(options.state_path, fingerprint);
    // Only an interrupted sweep may be resumed. A state holding every cell
    // was left by a completed one (a build that kept it, or a kill between
    // the last rewrite and the removal below): recompute it all.
    if (done.size() >= total) done.clear();
  }
  const auto completed = [&done](double rate, std::uint64_t seed) {
    return std::any_of(done.begin(), done.end(),
                       [&](const DiffSweepCell& cell) {
                         return cell.rate == rate && cell.seed == seed;
                       });
  };

  std::size_t index = 0;
  for (const double rate : options.rates) {
    for (const std::uint64_t seed : options.seeds) {
      ++index;
      if (completed(rate, seed)) {
        if (options.progress != nullptr) {
          *options.progress << "cell " << index << "/" << total << " rate="
                            << format_rate(rate) << " seed=" << seed
                            << ": resumed from state\n";
        }
        continue;
      }
      const auto start = std::chrono::steady_clock::now();
      done.push_back(run_cell(rate, seed, options.threads));
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
      if (options.progress != nullptr) {
        const DiffSweepCell& cell = done.back();
        *options.progress << "cell " << index << "/" << total << " rate="
                          << format_rate(rate) << " seed=" << seed
                          << ": mapit " << cell.mapit.tp << "/"
                          << cell.mapit.fp << "/" << cell.mapit.fn
                          << " simple " << cell.simple.tp << "/"
                          << cell.simple.fp << "/" << cell.simple.fn
                          << " convention " << cell.convention.tp << "/"
                          << cell.convention.fp << "/" << cell.convention.fn
                          << " (" << elapsed.count() << " ms)\n";
      }
      if (!options.state_path.empty()) {
        // Atomic rewrite after every cell: a kill leaves either the state
        // before this cell or after it, never a torn file.
        fault::write_file_atomic(options.state_path,
                                 encode_state(fingerprint, done));
      }
    }
  }
  if (!options.state_path.empty()) {
    // Every cell is done; the report supersedes the state. The fingerprint
    // covers the grid, not the code, so a state left behind would let the
    // next sweep resume every cell and run no engine at all. Removal is
    // best-effort, as for a completed run's checkpoint.
    std::error_code ec;
    std::filesystem::remove(options.state_path, ec);
  }

  DiffSweepReport report;
  report.cells = std::move(done);
  std::sort(report.cells.begin(), report.cells.end(),
            [](const DiffSweepCell& a, const DiffSweepCell& b) {
              return a.rate != b.rate ? a.rate < b.rate : a.seed < b.seed;
            });
  return report;
}

std::string format_diff_sweep_json(const DiffSweepReport& report) {
  std::ostringstream out;
  out << "{\n  \"format\": \"mapit-diff-sweep-v1\",\n  \"scale\": \"small\","
      << "\n  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const DiffSweepCell& cell = report.cells[i];
    out << "    {\"rate\": " << format_rate(cell.rate)
        << ", \"seed\": " << cell.seed << ", ";
    json_metrics(out, "mapit", cell.mapit);
    out << ", ";
    json_metrics(out, "simple", cell.simple);
    out << ", ";
    json_metrics(out, "convention", cell.convention);
    out << ", \"converged\": " << (cell.converged ? "true" : "false")
        << ", \"iterations\": " << cell.iterations
        << ", \"inferences\": " << cell.inferences << "}"
        << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

DiffSweepReport parse_diff_sweep_json(std::istream& in,
                                      const std::string& context) {
  DiffSweepReport report;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"rate\"") == std::string::npos) continue;
    DiffSweepCell cell;
    unsigned long long seed = 0;
    std::size_t m[9] = {};
    char converged_text[8] = {};
    int iterations = 0;
    unsigned long long inferences = 0;
    const int matched = std::sscanf(
        line.c_str(),
        " {\"rate\": %lf, \"seed\": %llu,"
        " \"mapit\": {\"tp\": %zu, \"fp\": %zu, \"fn\": %zu},"
        " \"simple\": {\"tp\": %zu, \"fp\": %zu, \"fn\": %zu},"
        " \"convention\": {\"tp\": %zu, \"fp\": %zu, \"fn\": %zu},"
        " \"converged\": %7[a-z], \"iterations\": %d,"
        " \"inferences\": %llu",
        &cell.rate, &seed, &m[0], &m[1], &m[2], &m[3], &m[4], &m[5], &m[6],
        &m[7], &m[8], converged_text, &iterations, &inferences);
    if (matched != 14) {
      throw Error("malformed diff-sweep cell line in " + context + ": " +
                  line);
    }
    cell.seed = seed;
    cell.mapit = Metrics{m[0], m[1], m[2]};
    cell.simple = Metrics{m[3], m[4], m[5]};
    cell.convention = Metrics{m[6], m[7], m[8]};
    cell.converged = std::string_view(converged_text) == "true";
    cell.iterations = iterations;
    cell.inferences = inferences;
    report.cells.push_back(cell);
  }
  return report;
}

std::vector<std::string> diff_sweep_drift(const DiffSweepReport& baseline,
                                          const DiffSweepReport& fresh) {
  std::vector<std::string> drift;
  const auto describe = [](const DiffSweepCell& cell) {
    std::ostringstream out;
    out << "rate=" << format_rate(cell.rate) << " seed=" << cell.seed;
    return out.str();
  };
  for (const DiffSweepCell& want : baseline.cells) {
    const auto it = std::find_if(fresh.cells.begin(), fresh.cells.end(),
                                 [&](const DiffSweepCell& cell) {
                                   return cell.rate == want.rate &&
                                          cell.seed == want.seed;
                                 });
    if (it == fresh.cells.end()) {
      drift.push_back("missing cell " + describe(want));
      continue;
    }
    if (*it != want) {
      std::ostringstream out;
      const auto diff_metrics = [&out](const char* name, const Metrics& a,
                                       const Metrics& b) {
        if (a.tp != b.tp || a.fp != b.fp || a.fn != b.fn) {
          out << ' ' << name << ' ' << a.tp << '/' << a.fp << '/' << a.fn
              << "->" << b.tp << '/' << b.fp << '/' << b.fn;
        }
      };
      out << "cell " << describe(want) << " drifted:";
      diff_metrics("mapit", want.mapit, it->mapit);
      diff_metrics("simple", want.simple, it->simple);
      diff_metrics("convention", want.convention, it->convention);
      if (want.converged != it->converged) out << " converged changed";
      if (want.iterations != it->iterations) {
        out << " iterations " << want.iterations << "->" << it->iterations;
      }
      if (want.inferences != it->inferences) {
        out << " inferences " << want.inferences << "->" << it->inferences;
      }
      drift.push_back(out.str());
    }
  }
  for (const DiffSweepCell& cell : fresh.cells) {
    const bool known = std::any_of(baseline.cells.begin(),
                                   baseline.cells.end(),
                                   [&](const DiffSweepCell& want) {
                                     return cell.rate == want.rate &&
                                            cell.seed == want.seed;
                                   });
    if (!known) drift.push_back("unexpected extra cell " + describe(cell));
  }
  return drift;
}

}  // namespace mapit::eval
