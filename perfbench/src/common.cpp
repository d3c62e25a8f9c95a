#include "common.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "inputs.h"

extern char** environ;

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool ChildExit::ok() const {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

pid_t spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path, const std::string& stderr_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(
      &actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(
      &actions, STDOUT_FILENO,
      stdout_path.empty() ? "/dev/null" : stdout_path.c_str(),
      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(
      &actions, STDERR_FILENO,
      stderr_path.empty() ? "/dev/null" : stderr_path.c_str(),
      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> cargv;
  for (const std::string& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("spawn " + argv[0] + ": " + std::strerror(rc));
  }
  return pid;
}

ChildExit reap(pid_t pid, Clock::time_point started) {
  ChildExit out;
  struct rusage usage {};
  while (::wait4(pid, &out.status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  out.wall_s = seconds_between(started, Clock::now());
  out.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  return out;
}

ChildExit run_child(const std::vector<std::string>& argv,
                    const std::string& stdout_path,
                    const std::string& stderr_path) {
  const auto started = Clock::now();
  return reap(spawn(argv, stdout_path, stderr_path), started);
}

std::vector<std::string> snapshot_argv(const Args& args,
                                       const InputSet& inputs,
                                       const std::string& traces,
                                       const std::string& out) {
  return {args.mapit,       "snapshot",    "--threads",     "1",
          "--traces",       traces,        "--rib",         inputs.rib,
          "--relationships", inputs.relationships, "--as2org", inputs.as2org,
          "--ixps",         inputs.ixps,   "--out",         out};
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string crc_hex(std::uint32_t crc) {
  char out[9];
  std::snprintf(out, sizeof(out), "%08x", crc);
  return out;
}

// ---- spans ----------------------------------------------------------------

double Tracer::micros(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, micros(Clock::now()), -1,
                    open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = micros(Clock::now());
  // Spans close innermost-first; anything still open above `id` was left
  // open by an exception and closes with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
    spans_[static_cast<std::size_t>(top)].end_us =
        spans_[static_cast<std::size_t>(id)].end_us;
  }
}

void Tracer::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back({name, micros(start), micros(end),
                    open_.empty() ? -1 : open_.back()});
}

double Tracer::total_s(const std::string& name) const {
  double total = 0;
  for (const double d : durations_s(name)) total += d;
  return total;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back((span.end_us - span.start_us) / 1e6);
  }
  return out;
}

double Tracer::top_level_s() const {
  double covered = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) covered += span.end_us - span.start_us;
  }
  return covered / 1e6;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Tracer::write_chrome(const std::filesystem::path& path,
                          const std::string& metadata_json) const {
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
      << ",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double dur = span.end_us - span.start_us;
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(span.name)
        << "\",\"cat\":\"" << json_escape(span.name.substr(0, span.name.find('.')))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << number(span.start_us)
        << ",\"dur\":" << number(dur) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent
        << ",\"self_us\":" << number(dur - child_us[i]) << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// ---- the result ---------------------------------------------------------

void Report::note(const std::string& key, double value) {
  info[key] = number(value);
}

void Report::note(const std::string& key, const std::string& value) {
  info[key] = "\"" + json_escape(value) + "\"";
}

void Report::fail_gate(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: GATE FAILED: " << why << "\n";
}

std::string environment_json(const Args& args, const Report& report) {
  std::ostringstream out;
  out << "{\"workload\":\"" << json_escape(args.workload)
      << "\",\"seed\":" << args.seed << ",\"scale\":\"" << args.scale
      << "\",\"seconds\":" << number(args.seconds)
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"program_threads\":1"
      << ",\"thread_scaling\":\"not measured: the program runs with "
         "--threads 1 on a shared machine whose multi-thread timings vary "
         "more than the bounds\""
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"compiler\":\"" << PERFBENCH_COMPILER << "\""
      << ",\"fail_ratio\":"
      << number(report.attempted == 0
                    ? 1.0
                    : static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted));
  for (const auto& [key, value] : report.info) {
    out << ",\"" << json_escape(key) << "\":" << value;
  }
  out << "}";
  return out.str();
}

void print_report(const Args& args, const Report& report) {
  std::cout << "{\"environment\":" << environment_json(args, report) << "}\n";
  std::cout << "{\"correct\":" << (report.correct ? "true" : "false")
            << ",\"attempted\":" << report.attempted
            << ",\"failed\":" << report.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, value] = report.metrics[i];
    std::cout << (i == 0 ? "" : ",") << "\"" << name
              << "\":{\"value\":" << number(value.first) << ",\"unit\":\""
              << value.second << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
