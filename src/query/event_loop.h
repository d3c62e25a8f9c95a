// The epoll event loop every server socket runs on: the query server
// (AsyncServer, `mapit serve`) and the MDP1 and HEALTH listeners of
// `mapit ingest`, which share one loop thread.
//
// A loop owns any number of loopback listeners, each with its own
// ServerOptions and session factory, and the connections they accept. A
// Session is one connection's protocol: bytes in, bytes out, "may I
// read", and a next deadline with its timer action. The loop does the
// rest without ever blocking in send or recv: bounded write buffers,
// reads paused past `max_write_buffer` unsent bytes or while the session
// declines input (TCP backpressure), deadlines folded into the epoll_wait
// timeout, the capacity refusal, accept backoff that disarms the listener
// instead of sleeping, and a drain on stop() bounded by `drain_timeout`
// (DESIGN.md §12).
//
// Threads: sessions run on the loop thread; post() is the one way in. All
// socket and epoll syscalls go through fault::Io. An exception escaping a
// session or a task ends the loop; start() keeps it for rethrow_failure(),
// so an injected crash reaches the owner exactly as thrown.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fault/io.h"
#include "query/server.h"

namespace mapit::query {

using SteadyTime = std::chrono::steady_clock::time_point;

/// One connection's protocol as the loop drives it (loop thread only).
class Session {
 public:
  virtual ~Session() = default;

  /// Bytes the peer sent (empty = the peer half-closed); appends the reply
  /// to `out`. False ends the session: reads stop, `out` flushes, close.
  virtual bool feed(std::string_view bytes, SteadyTime now,
                    std::string& out) = 0;

  /// False pauses reading until the owner wakes it via EventLoop::update.
  [[nodiscard]] virtual bool may_read() const { return true; }

  /// When on_deadline is next due; SteadyTime::max() = never.
  [[nodiscard]] virtual SteadyTime deadline() const {
    return SteadyTime::max();
  }

  /// The deadline passed: like feed() without input. A deadline passing on
  /// a connection that is already closing closes it at once.
  virtual bool on_deadline(SteadyTime now, std::string& out) = 0;
};

/// Makes the session of a newly accepted connection; `id` names it for
/// EventLoop::update and is never reused.
using SessionFactory =
    std::function<std::unique_ptr<Session>(std::uint64_t id, SteadyTime now)>;

class EventLoop {
 public:
  /// Sets up epoll and the wake pipe. Throws mapit::Error on failure.
  explicit EventLoop(fault::Io& io = fault::system_io());
  /// stop(). A failure never collected by rethrow_failure() is rethrown
  /// here, ending the process as an escaped exception would.
  ~EventLoop();

  /// Binds 127.0.0.1:`options.port` (SO_REUSEADDR, optional SO_REUSEPORT,
  /// `options.backlog` or SOMAXCONN) and serves it with sessions from
  /// `factory`. Before run()/start() only. Returns the bound port; throws
  /// mapit::Error when the port cannot be bound.
  std::uint16_t listen(const ServerOptions& options, SessionFactory factory);

  /// Runs the loop on the calling thread until stop() from another thread
  /// or until its last listener dies.
  void run();
  /// Runs the loop on a background thread.
  void start();
  /// Closes the listeners, flushes what each connection is owed (bounded
  /// by the longest drain_timeout), closes everything, joins. Idempotent.
  void stop();

  /// Queues `task` for the loop thread. Any thread; dropped once the loop
  /// is stopping or has ended.
  void post(std::function<void()> task);
  /// Rethrows, once, the exception that ended start()'s thread.
  void rethrow_failure();

  /// Loop thread only: lets connection `id`'s session act outside a read.
  /// `step` appends bytes to send and returns false to end the session;
  /// the loop then flushes and re-arms. A no-op once `id` is gone.
  void update(std::uint64_t id,
              const std::function<bool(Session&, std::string&)>& step);

  /// Loop thread only: unsent bytes across every connection.
  [[nodiscard]] std::size_t pending_bytes() const { return total_pending_; }
  /// Connections refused with the capacity line so far.
  [[nodiscard]] std::uint64_t refused() const { return refused_.load(); }
  /// accept4 failures absorbed by backoff so far.
  [[nodiscard]] std::uint64_t accept_retries() const {
    return accept_retries_.load();
  }
  /// Live connections right now.
  [[nodiscard]] std::size_t connections() const { return active_.load(); }

 private:
  struct Listener {
    int fd = -1;
    ServerOptions options;
    SessionFactory factory;
    std::size_t live = 0;  ///< its connections still open
    bool registered = false;
    std::chrono::milliseconds backoff{0};
    SteadyTime rearm_at{};
  };

  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    Listener* listener = nullptr;
    std::unique_ptr<Session> session;
    std::string out;          ///< bytes not yet written
    std::size_t out_off = 0;  ///< bytes of `out` already sent
    bool want_close = false;  ///< close once `out` is flushed
    bool paused = false;      ///< write backpressure (EPOLLIN off)
    std::uint32_t armed = 0;  ///< epoll events currently registered
    SteadyTime deadline = SteadyTime::max();  ///< session->deadline()

    [[nodiscard]] std::size_t pending_out() const {
      return out.size() - out_off;
    }
  };

  void loop_body();
  void register_listener(std::uint64_t id, Listener& listener);
  void close_listener(Listener& listener);
  void accept_ready(Listener& listener, SteadyTime now);
  void handle_readable(Connection& connection, SteadyTime now);
  /// Applies one session call's outcome: `keep` false marks the
  /// connection closing; then re-reads the deadline, flushes, applies
  /// backpressure, and closes or re-arms.
  void settle(Connection& connection, std::size_t pending_before, bool keep);
  /// Sends as much of `out` as the socket takes. False = connection dead.
  [[nodiscard]] bool flush(Connection& connection);
  void rearm(Connection& connection);
  void close_connection(Connection& connection);
  void begin_drain(SteadyTime now);
  [[nodiscard]] int wait_timeout_ms(SteadyTime now) const;
  /// Closes every connection and listener still open.
  void release_all();

  fault::Io* io_;
  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: post()/stop() wake epoll
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> accept_retries_{0};
  std::atomic<std::size_t> active_{0};
  std::thread thread_;

  std::mutex mutex_;  ///< guards the four members below
  std::condition_variable exited_cv_;
  bool running_ = false;
  std::vector<std::function<void()>> tasks_;
  std::exception_ptr failure_;
  std::mutex stop_mutex_;  ///< serializes stop() (explicit + destructor)

  // ---- loop-thread state -------------------------------------------------
  std::uint64_t next_id_ = 1;  ///< listener and connection ids (0 = wake)
  /// Ordered maps: deterministic deadline-scan and teardown order.
  std::map<std::uint64_t, std::unique_ptr<Listener>> listeners_;
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  /// Σ pending_out() over all connections, maintained at every change.
  std::size_t total_pending_ = 0;
  std::chrono::milliseconds drain_timeout_{0};
  bool draining_ = false;
  SteadyTime drain_deadline_{};
};

}  // namespace mapit::query
