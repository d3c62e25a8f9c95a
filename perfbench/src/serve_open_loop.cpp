// serve_open_loop: `mapit serve --async` over the base snapshot while the
// base and base+deltas generations are renamed in turn every 200 ms. One
// epoll thread drives a fixed send schedule over up to four connections
// and times each query from the moment it was due.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "query/query_engine.h"
#include "store/reader.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace store = mapit::store;
using mapit::query::QueryEngine;

constexpr double kReferenceRate = 50'000;
/// The rate ladder: kLadderBase * 2^k, climbed until a step misses the
/// limit, then bisected geometrically kBisections times between the last
/// step met and the first missed (a 2^(1/16) ~ 4% resolution).
constexpr double kLadderBase = 25'000;
constexpr double kLadderTop = 3'200'000;
constexpr int kBisections = 4;
/// Three swap periods, so the windowed median ignores one stalled window.
constexpr double kLadderStepSeconds = 0.6;
constexpr double kLatencyLimitUs = 1000;
/// A step whose generator ran later than this at p99 measured the
/// generator, not the server: it counts as not met.
constexpr double kGeneratorBoundUs = 200;
/// Also the window length: tail percentiles are taken per swap period and
/// their median reported, so one stall of the shared machine moves one
/// window, not the run, while every window still holds one swap.
constexpr auto kSwapInterval = std::chrono::milliseconds(200);
constexpr auto kAnswerDeadline = std::chrono::seconds(1);
/// Latency recorded for a failed query: it misses every limit.
constexpr double kFailedLatencyUs = 1e9;
constexpr std::size_t kQueryPool = 8192;
/// Server processes per untraced run, at most (see serve_phase).
constexpr int kSegments = 8;

enum Verb { kLookup, kAddr, kIp2as, kLinks, kVerbs };
const char* const kVerbNames[kVerbs] = {"lookup", "addr", "ip2as", "links"};

struct Query {
  std::string line;  ///< with the trailing newline
  std::string expect_a;
  std::string expect_b;
  Verb verb = kLookup;
};

std::string address(std::uint32_t value) {
  return mapit::net::Ipv4Address(value).to_string();
}

/// The mix, drawn from both generations' contents: 50% lookup (half hits,
/// half misses), 20% addr, 20% ip2as (half with a direction), 10% links.
std::vector<Query> make_queries(const QueryEngine& a, const QueryEngine& b,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5E12'7E00u);
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto inference = [&]() -> const store::InferenceRecord& {
    const auto& records = (rng() & 1) ? a.reader().inferences()
                                      : b.reader().inferences();
    return records[pick(records.size())];
  };
  std::vector<Query> queries;
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    const std::size_t roll = pick(100);
    Query query;
    if (roll < 25) {
      const auto& record = inference();
      query.verb = kLookup;
      query.line = "lookup " + address(record.address) +
                   (record.direction == 0 ? " f" : " b");
    } else if (roll < 50) {
      query.verb = kLookup;
      // Unicast space outside the simulated allocations: always a miss.
      query.line = "lookup " + address(0xC6120000u | static_cast<std::uint32_t>(pick(1u << 16))) +
                   ((rng() & 1) ? " f" : " b");
    } else if (roll < 70) {
      query.verb = kAddr;
      query.line = "addr " + address(inference().address);
    } else if (roll < 90) {
      query.verb = kIp2as;
      query.line = "ip2as " + address(inference().address);
      if (roll < 80) query.line += (rng() & 1) ? " f" : " b";
    } else {
      query.verb = kLinks;
      const auto& links = (rng() & 1) ? a.reader().links() : b.reader().links();
      const auto& link = links[pick(links.size())];
      query.line = "links " + std::to_string(link.as_a) + " " +
                   std::to_string(link.as_b);
    }
    query.expect_a = a.answer(query.line);
    query.expect_b = b.answer(query.line);
    query.line += '\n';
    queries.push_back(std::move(query));
  }
  return queries;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int connect_to(std::uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One blocking request/response on a fresh connection ("" on failure).
std::string ask(std::uint16_t port, const std::string& line) {
  const int fd = connect_to(port, false);
  if (fd < 0) return "";
  timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string answer;
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(line.size())) {
    char buf[4096];
    while (answer.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      answer.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t newline = answer.find('\n');
  return newline == std::string::npos ? "" : answer.substr(0, newline);
}

/// utime + stime of `pid`, in seconds.
double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  // Fields after the command: state is #3; utime and stime are #14, #15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14 || index == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// A running `mapit serve --async`, spawned and up once constructed;
/// killed and reaped on destruction unless stop() reaped it already.
class Server {
 public:
  Server(const Args& args, const std::string& live, const std::string& log)
      : started_(Clock::now()),
        pid_(spawn({args.mapit, "serve", live, "--async", "--port", "0",
                    "--watch-interval", "1"},
                   "", log)) {
    const std::string marker = "on 127.0.0.1:";
    while (seconds_between(started_, Clock::now()) < 20) {
      const std::string text = read_file(log);
      const std::size_t at = text.find(marker);
      if (at != std::string::npos && text.find('(', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::stoul(text.substr(at + marker.size())));
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    kill_and_reap();
    throw std::runtime_error("mapit serve did not start; see " + log);
  }
  ~Server() {
    try {
      kill_and_reap();
    } catch (const std::exception& error) {
      std::cerr << "perfbench: " << error.what() << "\n";
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// SIGTERM (a graceful drain), then reap.
  ChildExit stop() {
    ::kill(pid_, SIGTERM);
    const ChildExit exit = reap(pid_, started_);
    pid_ = -1;
    return exit;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] Clock::time_point started() const { return started_; }

 private:
  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    const pid_t pid = pid_;
    pid_ = -1;
    (void)reap(pid, started_);
  }

  Clock::time_point started_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Median over windows of each window's `q` quantile.
double windowed(const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const auto& window : windows) {
    if (!window.empty()) per_window.push_back(quantile(window, q));
  }
  return median(per_window);
}

/// Results of one fixed-rate stretch, bucketed by due time into
/// kSwapInterval windows.
struct RateResult {
  double rate = 0;
  std::int64_t start_ns = 0;
  /// Per window: due -> answered, failed queries at kFailedLatencyUs.
  std::vector<std::vector<double>> latency_us;
  /// Per window: sent minus due (how late the generator ran).
  std::vector<std::vector<double>> late_us;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t backlog_end = 0;   ///< unanswered when sending stopped
  bool backlog_taken = false;

  void record(std::vector<std::vector<double>>& windows, std::int64_t due_ns,
              double value) {
    const auto window = static_cast<std::size_t>(
        std::max<std::int64_t>(0, due_ns - start_ns) /
        std::chrono::duration_cast<std::chrono::nanoseconds>(kSwapInterval).count());
    if (windows.size() <= window) windows.resize(window + 1);
    windows[window].push_back(value);
  }
  [[nodiscard]] std::vector<double> all_latency() const {
    std::vector<double> out;
    for (const auto& window : latency_us) out.insert(out.end(), window.begin(), window.end());
    return out;
  }
  [[nodiscard]] double p99() const { return windowed(latency_us, 0.99); }
  [[nodiscard]] double late_p99() const { return windowed(late_us, 0.99); }
  [[nodiscard]] bool generator_bound() const {
    return late_p99() > kGeneratorBoundUs;
  }
  [[nodiscard]] bool met() const {
    return failed == 0 && p99() <= kLatencyLimitUs &&
           backlog_end <= static_cast<std::uint64_t>(rate * 2e-3) + 16 &&
           !generator_bound();
  }
};

/// The open-loop generator and the generation swapper, on one thread.
class Generator {
 public:
  Generator(const std::vector<Query>& queries, const Server& server,
            std::string live, std::string gen_a, std::string gen_b,
            std::size_t connections)
      : queries_(queries), server_(server), live_(std::move(live)),
        gens_{std::move(gen_a), std::move(gen_b)}, conns_(connections) {
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_ < 0) throw std::runtime_error("epoll_create1 failed");
    next_swap_ = Clock::now() + kSwapInterval;
  }
  ~Generator() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    ::close(epoll_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  RateResult run(double rate, double seconds);
  [[nodiscard]] std::uint64_t swaps() const { return swaps_; }
  [[nodiscard]] std::uint64_t answered() const { return answered_; }

 private:
  struct Pending {
    std::uint32_t query;
    std::int64_t due_ns;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<Pending> pending;
  };

  void open(std::size_t index);
  void fail_connection(std::size_t index, RateResult& result);
  void drain_input(std::size_t index, RateResult& result);
  void swap_if_due();

  const std::vector<Query>& queries_;
  const Server& server_;
  std::string live_;
  std::string gens_[2];
  int live_gen_ = 0;
  std::vector<Conn> conns_;
  int epoll_ = -1;
  std::size_t cursor_ = 0;
  Clock::time_point next_swap_;
  std::uint64_t swaps_ = 0;
  std::uint64_t answered_ = 0;
};

void Generator::open(std::size_t index) {
  Conn& conn = conns_[index];
  conn = Conn{};
  conn.fd = connect_to(server_.port(), true);
  if (conn.fd < 0) return;
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = index;
  ::epoll_ctl(epoll_, EPOLL_CTL_ADD, conn.fd, &event);
}

void Generator::fail_connection(std::size_t index, RateResult& result) {
  Conn& conn = conns_[index];
  result.failed += conn.pending.size();
  for (const Pending& pending : conn.pending) {
    result.record(result.latency_us, pending.due_ns, kFailedLatencyUs);
  }
  if (conn.fd >= 0) ::close(conn.fd);
  conn = Conn{};
}

void Generator::drain_input(std::size_t index, RateResult& result) {
  Conn& conn = conns_[index];
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    fail_connection(index, result);  // EOF or error: shed, refused, reset
    return;
  }
  const std::int64_t now = now_ns();
  std::size_t start = 0;
  for (std::size_t newline; (newline = conn.in.find('\n', start)) != std::string::npos;
       start = newline + 1) {
    if (conn.pending.empty()) {
      ++result.failed;  // an answer nobody asked for
      continue;
    }
    const Pending pending = conn.pending.front();
    conn.pending.pop_front();
    const std::string_view answer(conn.in.data() + start, newline - start);
    const Query& query = queries_[pending.query];
    ++answered_;
    if (answer != query.expect_a && answer != query.expect_b) {
      ++result.failed;
      result.record(result.latency_us, pending.due_ns, kFailedLatencyUs);
      if (result.failed <= 3) {
        std::cerr << "perfbench: wrong answer to '"
                  << query.line.substr(0, query.line.size() - 1) << "': '"
                  << answer << "'\n";
      }
      continue;
    }
    result.record(result.latency_us, pending.due_ns,
                  static_cast<double>(now - pending.due_ns) / 1e3);
  }
  conn.in.erase(0, start);
}

void Generator::swap_if_due() {
  if (Clock::now() < next_swap_) return;
  next_swap_ += kSwapInterval;
  live_gen_ ^= 1;
  const std::string staged = live_ + ".next";
  ::unlink(staged.c_str());
  if (::link(gens_[live_gen_].c_str(), staged.c_str()) != 0 ||
      ::rename(staged.c_str(), live_.c_str()) != 0) {
    throw std::runtime_error("cannot stage the next generation");
  }
  // SIGHUP makes the server re-check now instead of at --watch-interval.
  ::kill(server_.pid(), SIGHUP);
  ++swaps_;
}

RateResult Generator::run(double rate, double seconds) {
  RateResult result;
  result.rate = rate;
  const auto total = static_cast<std::uint64_t>(rate * seconds);
  const double interval_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1'000'000;
  result.start_ns = start;
  const std::int64_t deadline_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kAnswerDeadline).count();
  std::uint64_t next = 0;
  epoll_event events[16];
  while (true) {
    std::int64_t now = now_ns();
    while (next < total) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(next) * interval_ns);
      if (due > now) break;
      const std::size_t index = next % conns_.size();
      if (conns_[index].fd < 0) open(index);
      Conn& conn = conns_[index];
      if (conn.fd < 0) {
        ++result.failed;  // refused
        result.record(result.latency_us, due, kFailedLatencyUs);
      } else {
        const auto query = static_cast<std::uint32_t>(cursor_);
        conn.out += queries_[query].line;
        conn.pending.push_back({query, due});
      }
      result.record(result.late_us, due, static_cast<double>(now - due) / 1e3);
      cursor_ = (cursor_ + 1) % queries_.size();
      ++result.sent;
      ++next;
    }
    if (next == total && !result.backlog_taken) {
      for (const Conn& conn : conns_) result.backlog_end += conn.pending.size();
      result.backlog_taken = true;
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      if (conn.fd < 0 || conn.out_off == conn.out.size()) continue;
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        if (conn.out_off == conn.out.size()) {
          conn.out.clear();
          conn.out_off = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        fail_connection(i, result);
      }
    }
    const int ready = ::epoll_wait(epoll_, events, 16, 0);
    for (int e = 0; e < ready; ++e) {
      const auto index = static_cast<std::size_t>(events[e].data.u64);
      if (conns_[index].fd >= 0) drain_input(index, result);
    }
    now = now_ns();
    bool idle = true;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].pending.empty()) continue;
      idle = false;
      if (now - conns_[i].pending.front().due_ns > deadline_ns) {
        fail_connection(i, result);  // an answer missing after 1 s
      }
    }
    swap_if_due();
    if (next == total && idle) break;
  }
  return result;
}

/// Mean QueryEngine::answer cost per verb, in ns, over the query pool.
void time_answers(const QueryEngine& engine, const std::vector<Query>& queries,
                  Tracer& tracer, Report& report) {
  for (int verb = 0; verb < kVerbs; ++verb) {
    std::vector<std::string_view> lines;
    for (const Query& query : queries) {
      if (query.verb == verb) {
        lines.emplace_back(query.line.data(), query.line.size() - 1);
      }
    }
    const std::string name = std::string("query.answer.") + kVerbNames[verb];
    std::size_t answered = 0;
    std::size_t bytes = 0;
    const auto started = Clock::now();
    {
      Span span(tracer, name);
      while (seconds_between(started, Clock::now()) < 0.05) {
        for (const std::string_view line : lines) bytes += engine.answer(line).size();
        answered += lines.size();
      }
    }
    const double elapsed = seconds_between(started, Clock::now());
    if (bytes == 0) report.fail_gate("in-process answers were empty");
    report.metric(std::string("query.answer_ns.") + kVerbNames[verb],
                  elapsed * 1e9 / static_cast<double>(answered), "ns");
  }
}

std::uint64_t health_field(const std::string& health, const std::string& key) {
  const std::size_t at = health.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::stoull(health.substr(at + key.size() + 2));
}

}  // namespace

void serve_phase(const Args& args, const std::string& gen_a,
                 const std::string& gen_b, const fs::path& dir,
                 double reference_seconds, int segments, Tracer& tracer,
                 Report& report) {
  const store::SnapshotReader reader_a = store::SnapshotReader::open(gen_a);
  const store::SnapshotReader reader_b = store::SnapshotReader::open(gen_b);
  const QueryEngine engine_a(reader_a);
  const QueryEngine engine_b(reader_b);
  const std::vector<Query> queries = make_queries(engine_a, engine_b, args.seed);
  if (args.trace) time_answers(engine_a, queries, tracer, report);

  const std::string live = (dir / "live.snap").string();
  const std::string log = (dir / "serve.log").string();
  const std::size_t connections =
      std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));

  // The reference time is split over `segments` fresh server processes:
  // where the scheduler places a server's threads relative to the
  // generator's shifts its whole latency distribution, so one process per
  // run would make runs bimodal. Each segment's spawn -> first correct
  // answer is a set-up sample.
  std::vector<double> setup;
  std::vector<double> rss;
  RateResult reference;  // every segment's windows, pooled
  std::vector<RateResult> ladder;
  double cpu = 0;
  std::uint64_t answered = 0;
  std::uint64_t swaps_sent = 0;
  std::uint64_t swaps = 0;
  std::uint64_t shed = 0;
  std::uint64_t refused = 0;
  for (int segment = 0; segment < segments; ++segment) {
    ::unlink(live.c_str());
    if (::link(gen_a.c_str(), live.c_str()) != 0) {
      throw std::runtime_error("cannot link " + live);
    }
    std::unique_ptr<Server> server;
    {
      Span span(tracer, "serve.setup");
      server = std::make_unique<Server>(args, live, log);
      const std::string first = ask(server->port(), queries[0].line);
      setup.push_back(seconds_between(server->started(), Clock::now()));
      if (first != queries[0].expect_a) {
        report.fail_gate("first answer of a fresh server was '" + first + "'");
      }
    }
    {
      Generator generator(queries, *server, live, gen_a, gen_b, connections);
      {
        Span span(tracer, "serve.reference_rate");
        const double cpu_before = cpu_seconds(server->pid());
        RateResult part = generator.run(kReferenceRate, reference_seconds / segments);
        cpu += cpu_seconds(server->pid()) - cpu_before;
        answered += generator.answered();
        for (auto& window : part.latency_us) reference.latency_us.push_back(std::move(window));
        for (auto& window : part.late_us) reference.late_us.push_back(std::move(window));
        reference.sent += part.sent;
        reference.failed += part.failed;
      }
      // The rate ladder runs in traced runs only: near its top the single
      // generator thread, not the server, sets the pace, and host noise
      // flips steps, so query.max_qps is a per-layer reading, not a gate.
      if (args.trace && segment + 1 == segments) {
        const auto step = [&](double rate) {
          Span span(tracer, "serve.ladder_step");
          ladder.push_back(generator.run(rate, kLadderStepSeconds));
          return ladder.back().met();
        };
        // Climb until two steps in a row miss, so one stall of the shared
        // machine at a low rate does not end the climb.
        double met = 0;
        int misses = 0;
        for (double rate = kLadderBase; rate <= kLadderTop && misses < 2; rate *= 2) {
          if (step(rate)) {
            met = rate;
            misses = 0;
          } else {
            ++misses;
          }
        }
        double missed = met * 2;
        for (int i = 0; i < kBisections && met > 0 && met < kLadderTop; ++i) {
          const double rate = std::sqrt(met * missed);
          (step(rate) ? met : missed) = rate;
        }
      }
      swaps_sent += generator.swaps();
    }
    const std::string health = ask(server->port(), "HEALTH\n");
    if (health.rfind("OK", 0) != 0) report.fail_gate("HEALTH failed: " + health);
    swaps += health_field(health, "swaps");
    shed += health_field(health, "shed");
    refused += health_field(health, "refused");
    rss.push_back(server->stop().maxrss_mb);
  }

  report.attempted += reference.sent;
  report.failed += reference.failed;
  for (const RateResult& step : ladder) {
    report.attempted += step.sent;
    report.failed += step.failed;
  }
  if (report.failed > 0) report.fail_gate("failed queries");
  if (swaps_sent == 0 || swaps == 0) report.fail_gate("no generation was swapped in");

  const double late_p99 = reference.late_p99();
  const std::vector<double> latency = reference.all_latency();
  report.note("connections", static_cast<double>(connections));
  report.note("reference_rate_qps", kReferenceRate);
  report.note("server_processes", segments);
  report.note("samples", static_cast<double>(latency.size()));
  report.note("tail_percentile", "p90 per 200 ms swap period, median over periods");
  report.note("p99_windowed_ms", reference.p99() / 1e3);
  report.note("p99_ms", quantile(latency, 0.99) / 1e3);
  report.note("generator_late_p99_us", late_p99);
  report.note("swaps", static_cast<double>(swaps));
  report.note("shed", static_cast<double>(shed));
  report.note("refused", static_cast<double>(refused));
  report.note("server_cpu_us_per_query",
              answered > 0 ? cpu * 1e6 / static_cast<double>(answered) : 0.0);

  if (args.trace) {
    double max_qps = 0;
    std::string steps;
    for (const RateResult& step : ladder) {
      steps += std::to_string(static_cast<long>(step.rate)) + ":" +
               (step.met()               ? "met"
                : step.generator_bound() ? "generator-bound"
                                         : "not-met") +
               " ";
      if (step.met()) max_qps = std::max(max_qps, step.rate);
    }
    report.note("ladder", steps);
    report.metric("query.max_qps", max_qps, "1/s");
    report.metric("query.server_cpu_us_per_query",
                  answered > 0 ? cpu * 1e6 / static_cast<double>(answered) : 0.0,
                  "us");
    report.metric("query.generator_late_us", late_p99, "us");
    report.metric("query.swaps", static_cast<double>(swaps), "count");
    return;
  }
  report.metric("setup_s", median(setup), "s");
  report.metric("latency_p50_ms", median(latency) / 1e3, "ms");
  // The tail gated here is p90: on a shared host, stalls of the machine
  // (not of the server) reach 1-5% of queries and move p99 tenfold from
  // run to run, while p90 holds within a few percent. p99 is in the
  // environment line.
  report.metric("latency_tail_ms", windowed(reference.latency_us, 0.9) / 1e3, "ms");
  report.metric("peak_rss_mb", median(rss), "MB");
}

Report run_serve_open_loop(const Args& args, const InputSet& inputs,
                           const fs::path& dir) {
  Report report;
  // The two generations: the base snapshot and base+deltas.
  const std::string gen_a = (dir / "gen-base.snap").string();
  const std::string gen_b = (dir / "gen-full.snap").string();
  for (const auto& [traces, out] :
       {std::pair{inputs.base, gen_a}, std::pair{inputs.traces, gen_b}}) {
    if (!run_child(snapshot_argv(args, inputs, traces, out)).ok()) {
      throw std::runtime_error("mapit snapshot failed for " + traces);
    }
  }
  Tracer off(false);
  // Segments of at least a second, so each holds several swaps.
  const int segments = std::clamp(static_cast<int>(args.seconds), 1, kSegments);
  serve_phase(args, gen_a, gen_b, dir, args.seconds, segments, off, report);
  return report;
}

}  // namespace perfbench
