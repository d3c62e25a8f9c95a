// The query server behind `mapit serve`: one listener on a
// query::EventLoop (event_loop.h), which owns the sockets, bounded write
// buffers, backpressure, transient-accept backoff and the bounded drain of
// stop(), so a stalled peer costs bounded memory and nothing else. N
// independent processes can serve the same immutable mmap'd snapshot
// behind SO_REUSEPORT (`ServerOptions::reuse_port`) for per-core
// scale-out.
//
// Each connection's session is the socketless query::ProtocolSession
// (protocol.h: the line protocol and the "MQB1" binary framing on the same
// port, also driven directly by unit tests and the fuzz harnesses) plus
// what the server adds around it: the HEALTH answer, the idle timeout, the
// hot-swap pin and load shedding. Each readiness event is one recv and one
// feed, so in hub mode one snapshot generation answers each read batch.
//
// Overload and failure behavior is the server.h contract (refusal line,
// ERR-and-discard for oversized lines, idle timeout, transient-accept
// backoff, "ERR overloaded retry" past max_inflight_bytes). All socket and
// epoll syscalls go through fault::Io, so the chaos matrix
// (tests/query/server_fault_test.cpp) can inject faults at any of them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "query/event_loop.h"
#include "query/protocol.h"
#include "query/query_engine.h"
#include "query/server.h"

namespace mapit::query {

class SnapshotHub;      // hub.h — live snapshot hot-swap
struct LoadedSnapshot;  // hub.h — one pinned snapshot generation

class AsyncServer {
 public:
  /// Binds and listens on 127.0.0.1:`options.port` and sets up the epoll
  /// instance. Throws mapit::Error when sockets or epoll cannot be set up.
  /// `engine` must outlive the server.
  AsyncServer(const QueryEngine& engine, const ServerOptions& options);

  /// Convenience: default options with an explicit port.
  AsyncServer(const QueryEngine& engine, std::uint16_t port);

  /// Hot-swap mode: answers from `hub`'s current snapshot generation,
  /// pinned once per readiness event's read batch, so a republish never
  /// tears a batch and never drops a connection. `hub` must outlive the
  /// server.
  AsyncServer(SnapshotHub& hub, const ServerOptions& options);

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Stops and joins the event loop.
  ~AsyncServer();

  /// The bound port (the chosen one when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread until stop() from another
  /// thread (or a fatally dead listener). `mapit serve` sits here.
  void serve_forever();

  /// Runs the event loop on a background thread (tests and benches).
  void start();

  /// Closes the listener, flushes pending answers (bounded by
  /// `drain_timeout`), closes every connection, joins the loop. Idempotent.
  void stop();

  /// Connections refused with the capacity line so far.
  [[nodiscard]] std::uint64_t refused_connections() const {
    return loop_.refused();
  }

  /// accept4 failures absorbed by backoff so far.
  [[nodiscard]] std::uint64_t accept_retries() const {
    return loop_.accept_retries();
  }

  /// Connections closed with the overload answer (max_inflight_bytes).
  [[nodiscard]] std::uint64_t shed_connections() const {
    return shed_.load(std::memory_order_relaxed);
  }

  /// Live connections right now (the HEALTH line reports this too).
  [[nodiscard]] std::size_t active_connections() const {
    return loop_.connections();
  }

 private:
  class QuerySession;

  AsyncServer(const QueryEngine* engine, SnapshotHub* hub,
              const ServerOptions& options);
  /// HEALTH answer, reporting `pinned` (the generation answering the rest
  /// of the batch in hub mode) or the fixed engine. Loop thread only.
  [[nodiscard]] std::string health_line(const LoadedSnapshot* pinned) const;

  const QueryEngine* engine_;  ///< fixed-engine mode; else null
  SnapshotHub* hub_;           ///< hot-swap mode; else null
  ServerOptions options_;
  std::atomic<std::uint64_t> shed_{0};
  std::chrono::steady_clock::time_point started_;  ///< HEALTH uptime
  std::uint16_t port_ = 0;
  /// Declared last: destroyed first, so no session outlives the state
  /// above.
  EventLoop loop_;
};

}  // namespace mapit::query
