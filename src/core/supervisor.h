// Run supervision: wall-clock deadlines, RSS memory budgets, and
// SIGTERM/SIGINT handling for long engine runs.
//
// The supervisor never kills anything. The engine polls should_stop()
// between passes (at every RunBoundary) and performs a graceful
// checkpoint-and-exit itself; a monotonic watchdog thread merely observes —
// it samples RSS and the clock a few times a second so a budget breach that
// happens mid-pass is still visible at the next boundary even if the
// process has shrunk back below the budget by then. An external scheduler
// sees the documented exit code (5), requeues, and resumes from the
// checkpoint instead of losing the run.
//
// SignalGuard is the classic self-pipe trick: the handler only writes one
// byte to a non-blocking pipe and records the signal number in an atomic,
// so arbitrary threads can either poll signal_received() (the engine
// boundary path) or block in wait() (the serve drain path) without any
// async-signal-unsafe work in the handler.
#pragma once

#include <signal.h>  // NOLINT: struct sigaction is POSIX, not in <csignal>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

namespace mapit::core {

/// Why a supervised run stopped early (kNone = keep going).
enum class StopReason : std::uint8_t {
  kNone = 0,
  kSignal,         ///< SIGTERM/SIGINT arrived
  kDeadline,       ///< --deadline wall-clock budget exhausted
  kMemoryBudget,   ///< peak RSS exceeded --memory-budget
  kBoundaryLimit,  ///< internal: stop after N boundaries (tests)
};

[[nodiscard]] const char* to_string(StopReason reason);

/// Current resident set size from /proc/self/statm, in bytes. Returns 0
/// when the file is unavailable (non-Linux), which disables RSS budgets.
[[nodiscard]] std::size_t current_rss_bytes();

/// Installs SIGTERM/SIGINT/SIGHUP handlers for the lifetime of the object
/// and restores the previous handlers on destruction. At most one instance
/// may exist at a time (enforced). All methods are thread-safe.
///
/// SIGHUP is deliberately NOT a stop signal: it only bumps hup_count() and
/// wakes wait()ers, so long-running commands (`serve`, `supervise`) can use
/// it as an operator nudge — force a snapshot re-check, forward to children
/// — while TERM/INT keep their shutdown meaning.
class SignalGuard {
 public:
  SignalGuard();
  ~SignalGuard();
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

  /// The first stop signal received (SIGTERM/SIGINT), or 0 if none yet.
  /// SIGHUP never shows up here.
  [[nodiscard]] static int signal_received();

  /// Number of SIGHUPs received since the guard was installed. Callers that
  /// care keep their own last-seen value and compare.
  [[nodiscard]] static std::uint64_t hup_count();

  /// Blocks until a signal arrives or wake() is called. Returns
  /// signal_received() at that moment (0 means a plain wake() or a SIGHUP;
  /// check hup_count() to tell the two apart).
  int wait();

  /// Unblocks one wait()er without a signal (e.g. the server exited for
  /// its own reasons and the drain thread should go home).
  void wake();

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  struct sigaction old_term_ {};
  struct sigaction old_int_ {};
  struct sigaction old_hup_ {};
};

struct SupervisorOptions {
  /// Wall-clock budget in seconds; 0 = unlimited.
  double deadline_seconds = 0;
  /// Peak-RSS budget in MiB; 0 = unlimited. Ignored where RSS cannot be
  /// read (current_rss_bytes() == 0).
  std::size_t memory_budget_mb = 0;
  /// Stop after this many run boundaries; 0 = unlimited. Used by tests and
  /// the CI kill-at-every-pass matrix to exit deterministically at each
  /// successive boundary.
  int boundary_limit = 0;
};

/// Polled between engine passes; owns the observe-only watchdog thread.
class RunSupervisor {
 public:
  /// `signals` may be null (no signal checking); it must outlive the
  /// supervisor. The watchdog thread starts only when a deadline or memory
  /// budget is configured.
  explicit RunSupervisor(SupervisorOptions options,
                         SignalGuard* signals = nullptr);
  ~RunSupervisor();
  RunSupervisor(const RunSupervisor&) = delete;
  RunSupervisor& operator=(const RunSupervisor&) = delete;

  /// Records one completed run boundary (for boundary_limit).
  void note_boundary();

  /// The supervision verdict right now. Sticky: once a reason other than
  /// kNone is returned, every later call returns the same reason — a run
  /// that decided to stop must not un-decide while checkpointing.
  [[nodiscard]] StopReason should_stop();

  /// Highest RSS observed so far (boundary polls + watchdog samples).
  [[nodiscard]] std::size_t peak_rss_bytes() const {
    return peak_rss_.load(std::memory_order_relaxed);
  }

  /// Seconds since construction.
  [[nodiscard]] double elapsed_seconds() const;

 private:
  void observe();  ///< one watchdog sample: fold RSS/clock into the atomics

  SupervisorOptions options_;
  SignalGuard* signals_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::size_t> peak_rss_{0};
  /// Breach the watchdog observed (a StopReason); kNone when healthy.
  std::atomic<std::uint8_t> observed_breach_{0};
  int boundaries_ = 0;
  StopReason stopped_ = StopReason::kNone;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread watchdog_;
};

}  // namespace mapit::core
