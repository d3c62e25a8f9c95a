// Shared plumbing for the benchmark program: command-line arguments, timing,
// percentiles, child processes, the span recorder and the result line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Every input and tunable the benchmark has; main() parses them.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "standard" (the workloads as documented) or "small" (self-test).
  std::string scale = "standard";
  std::filesystem::path work_dir;   ///< scratch for generated inputs
  std::filesystem::path trace_out;  ///< Chrome trace JSON (traced runs)
  std::string mapit;                ///< the `mapit` CLI under test
};

// ---- statistics -------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}


// ---- child processes ----------------------------------------------------

struct ChildExit {
  int status = -1;        ///< raw wait status
  double wall_s = 0;      ///< spawn -> reaped
  double maxrss_mb = 0;   ///< ru_maxrss of the child
  double cpu_s = 0;       ///< ru_utime + ru_stime of the child
  [[nodiscard]] bool ok() const;
};

/// Starts argv[0] (a path) with stdout/stderr redirected to the given
/// files ("" = /dev/null). Throws on spawn failure.
[[nodiscard]] pid_t spawn(const std::vector<std::string>& argv,
                          const std::string& stdout_path,
                          const std::string& stderr_path);
/// Reaps `pid` (blocking) and returns its exit and rusage.
[[nodiscard]] ChildExit reap(pid_t pid, Clock::time_point started);
/// spawn + reap.
[[nodiscard]] ChildExit run_child(const std::vector<std::string>& argv,
                                  const std::string& stdout_path = "",
                                  const std::string& stderr_path = "");

/// Arguments for `mapit snapshot --threads 1` over one trace file and the
/// input set's RIB, relationships, AS2Org and IXP files.
struct InputSet;
[[nodiscard]] std::vector<std::string> snapshot_argv(
    const Args& args, const InputSet& inputs, const std::string& traces,
    const std::string& out);

[[nodiscard]] std::string read_file(const std::filesystem::path& path);
[[nodiscard]] std::string crc_hex(std::uint32_t crc);

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder. Spans nest by call order: a span's parent is
/// the innermost span open when it began. Disabled recorders cost one
/// branch per call, so the untraced runs keep the same code path.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int begin(const std::string& name);
  void end(int id);
  /// Records an already-finished span under the innermost open span.
  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end);

  /// Summed duration (seconds) of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Per-span durations (seconds) of every span called `name`.
  [[nodiscard]] std::vector<double> durations_s(const std::string& name) const;
  /// Wall time covered by the union of top-level spans, in seconds.
  [[nodiscard]] double top_level_s() const;

  /// Writes Chrome trace-event JSON (complete "X" events; args carry the
  /// span id, parent id and self time) with `metadata` under "otherData".
  void write_chrome(const std::filesystem::path& path,
                    const std::string& metadata_json) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = -1;
    int parent = -1;
  };
  [[nodiscard]] double micros(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---- the result ---------------------------------------------------------

/// What one run prints: the gate verdict, failure accounting and metrics.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Free-form facts for the environment line (numbers or strings).
  std::map<std::string, std::string> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& value);
  /// Marks the run incorrect and says why on stderr.
  void fail_gate(const std::string& why);
};

/// Prints the environment line, then the result line, to stdout.
void print_report(const Args& args, const Report& report);
[[nodiscard]] std::string environment_json(const Args& args,
                                           const Report& report);

}  // namespace perfbench
