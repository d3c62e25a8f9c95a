// Pieces of the query server (query::AsyncServer, async_server.h) that the
// event-loop core (event_loop.h) and the ingest listeners reuse: the
// ServerOptions knobs every listener is configured with, the two refusal
// lines, the HEALTH answer format, and the token escaping both HEALTH
// lines share.
//
// Protocol: clients send QueryEngine protocol lines ('\n'-terminated, CRLF
// tolerated); the server answers each non-empty line with exactly one
// answer line, in order, so clients may pipeline arbitrarily deep batches.
// One line is handled by the server itself rather than the engine: "HEALTH"
// answers a readiness line ("OK crc32=<hex> uptime=<n> connections=<n>
// inferences=<n> refused=<n> accept_retries=<n> ... last_swap_error=<...>")
// so load balancers and the `mapit supervise` probe can check the server
// and verify which snapshot it is serving (see format_health below).
//
// Overload and failure behavior (DESIGN.md §9):
//   * accept4 failures are never fatal: transient errors (EMFILE, ENFILE,
//     ECONNABORTED, ENOBUFS, ENOMEM, EAGAIN) retry with capped exponential
//     backoff; only listener shutdown ends the loop.
//   * At `max_connections` live connections a new client gets one refusal
//     line ("ERR server at connection capacity (try again later)") and an
//     immediate close — the 503 of this protocol.
//   * A request line longer than `max_line_bytes` is answered with an ERR
//     line and discarded through its terminating newline; the connection
//     and the rest of the batch survive, and the buffer never grows
//     unboundedly.
//   * Connections idle longer than `idle_timeout` are closed.
//   * stop() drains gracefully: in-flight batches are answered before the
//     connection closes, bounded by `drain_timeout`.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "fault/io.h"
#include "query/query_engine.h"

namespace mapit::query {

/// Listener options for EventLoop::listen (event_loop.h): AsyncServer takes
/// them whole, the ingest listeners set their port.
struct ServerOptions {
  /// 127.0.0.1 port to bind (0 picks an ephemeral port, see port()).
  std::uint16_t port = 0;
  /// Close connections with no traffic for this long. zero = no timeout.
  std::chrono::milliseconds idle_timeout{0};
  /// listen(2) backlog; 0 = SOMAXCONN. Accept bursts beyond the backlog
  /// get SYN drops/refusals the server never sees, so default to the
  /// kernel cap rather than a magic small number.
  int backlog = 0;
  /// Set SO_REUSEPORT so N independent server processes can share one
  /// port and the kernel load-balances connections across them (each
  /// process mmaps the same immutable snapshot).
  bool reuse_port = false;
  /// Live-connection cap; the excess client gets a refusal line + close.
  std::size_t max_connections = 256;
  /// Longest accepted request line (bytes, excluding the newline).
  std::size_t max_line_bytes = 1 << 20;
  /// Upper bound for the accept-failure backoff.
  std::chrono::milliseconds max_accept_backoff{200};
  /// Write-buffer high-water mark: once a connection owes this many
  /// unsent bytes, the server stops *reading* from it (EPOLLIN off) until
  /// the peer drains below half — a stalled reader caps its own memory
  /// and never blocks the loop.
  std::size_t max_write_buffer = 1 << 20;
  /// stop() drain bound: connections that cannot flush their pending
  /// answers within this budget are closed anyway, so a stalled reader
  /// cannot block graceful shutdown.
  std::chrono::milliseconds drain_timeout{5000};
  /// Load-shedding budget: aggregate answer bytes accepted but not yet
  /// handed to the kernel, across all connections of this server. A batch
  /// that would push past the budget is not processed — the client gets
  /// "ERR overloaded retry" and a close instead of queueing unboundedly.
  /// 0 = unlimited (the default; per-connection bounds still apply).
  std::size_t max_inflight_bytes = 0;
  /// Injectable syscall boundary (nullptr = fault::system_io()).
  fault::Io* io = nullptr;
};

namespace detail {

/// The refusal line clients past `max_connections` receive.
inline constexpr char kCapacityRefusal[] =
    "ERR server at connection capacity (try again later)\n";

/// The shed answer clients get when the in-flight budget is exhausted
/// (ServerOptions::max_inflight_bytes). Clients should back off and retry.
inline constexpr char kOverloadRefusal[] = "ERR overloaded retry\n";

}  // namespace detail

/// One key=value-safe HEALTH field value: "none" when empty, otherwise
/// `value` with every space, tab and line break turned into '_'. Shared by
/// the query and the ingest HEALTH lines.
[[nodiscard]] std::string health_token(std::string_view value);

/// The HEALTH probe answer (no trailing newline). `generation` and `swaps`
/// describe the live snapshot hot-swap state (generation 1 / 0 swaps for a
/// server bound to a fixed engine); the snapshot's own format version comes from the engine's
/// reader. `shed` counts connections refused by the in-flight budget;
/// `last_swap_error` is the most recent hot-swap failure ("" = none yet —
/// reported as `last_swap_error=none`, spaces become '_' so the line stays
/// key=value parseable). New fields append at the end — probes match the
/// line's prefix.
[[nodiscard]] std::string format_health(
    const QueryEngine& engine, std::uint64_t generation, std::uint64_t swaps,
    std::chrono::steady_clock::time_point started, std::size_t connections,
    std::uint64_t refused, std::uint64_t accept_retries, std::uint64_t shed,
    const std::string& last_swap_error);

}  // namespace mapit::query
