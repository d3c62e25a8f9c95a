// MDP1: the framed, authenticated delta transport for remote ingestion.
//
// MDP1 carries delta lines from remote monitors (`mapit send`) with a
// protocol that survives sender crashes, receiver crashes, partitions, and
// duplicate delivery without ever violating the byte-identical-to-cold-run
// invariant:
//
//   client                               server
//     "MDP1"              ------------>            (4-byte stream magic)
//                         <------------  CHALLENGE (version, base
//                                        fingerprint, 16-byte nonce)
//     HELLO (version, fingerprint echo,
//            session name, HMAC-SHA256) ------------>
//                         <------------  HELLO_ACK (last durable seq,
//                                        last durable source offset)
//     BATCH (seq, end offset, lines)    ------------>
//                         <------------  ACK (seq, end offset) — sent only
//                                        AFTER the journal fsync
//     HEARTBEAT                         <---------->  (both directions)
//
// Every frame after the magic is length-prefixed and CRC-framed with the
// exact header shape of a journal record (u32 size | u32 CRC-32 | u8 type
// | u8[3] reserved), so one fuzzed parser family covers both formats.
//
// Exactly-once contract: a batch is journaled as ONE atomic kRemoteBatch
// record carrying its (session, seq) watermark, fsynced, and only then
// ACKed. ACKs are cumulative (an ACK for seq covers everything <= seq).
// A sender that never saw the ACK resends; the receiver compares seq
// against the session watermark and drops duplicates idempotently —
// re-ACKing the watermark so the sender advances. A torn journal tail
// drops lines and watermark together, so there is no crash window where
// traces are durable but their dedupe key is not.
//
// Authentication: HELLO carries HMAC-SHA256(secret, "MDP1" || version ||
// nonce || fingerprint || session). A wrong secret or a mismatched base
// fingerprint is rejected at HELLO with a typed ERROR frame and a clean
// close — before any journal write. The fingerprint (a FNV-1a fold of the
// base run's CheckpointMeta) pins which engine state the deltas extend.
//
// Liveness: both ends send HEARTBEAT frames when idle and enforce a read
// deadline; a peer that goes silent is closed (server) or reconnected to
// (client). Per-connection inflight quotas bound unACKed batches, so a
// fast sender is throttled by TCP backpressure.
// The receiving end of a connection is a socketless session on the shared
// query::EventLoop (event_loop.h).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "core/journal.h"
#include "fault/io.h"
#include "net/error.h"
#include "query/event_loop.h"

namespace mapit::ingest {

/// Malformed or unexpected MDP1 bytes (bad CRC, oversized frame, protocol
/// state violation). Connection-fatal, never journal-corrupting.
class TransportError : public Error {
 public:
  using Error::Error;
};

/// Rejected at HELLO: wrong HMAC or mismatched base fingerprint. Its own
/// type so `mapit send` can map it to a distinct exit code (7) instead of
/// retrying a credential that will never work.
class TransportAuthError : public TransportError {
 public:
  using TransportError::TransportError;
};

inline constexpr char kTransportMagic[4] = {'M', 'D', 'P', '1'};
inline constexpr std::uint32_t kTransportVersion = 1;
/// Frame header: u32 payload size | u32 CRC-32 | u8 type | u8[3] reserved.
inline constexpr std::size_t kTransportFrameSize = 12;
/// Sanity cap on one frame payload; a larger size field is corruption.
inline constexpr std::uint32_t kMaxTransportPayload = 4u << 20;
/// Cap on one trace line inside a BATCH.
inline constexpr std::uint32_t kMaxTransportLine = 1u << 20;
inline constexpr std::size_t kTransportNonceSize = 16;
inline constexpr std::size_t kTransportMacSize = 32;
inline constexpr std::size_t kMaxTransportSession = core::kMaxJournalSessionName;

enum class FrameType : std::uint8_t {
  kChallenge = 1,
  kHello = 2,
  kHelloAck = 3,
  kBatch = 4,
  kAck = 5,
  kHeartbeat = 6,
  kError = 7,
};

/// Typed rejection codes carried by ERROR frames.
enum class TransportErrorCode : std::uint16_t {
  kProtocol = 1,      ///< malformed frame or wrong state
  kAuthFailed = 2,    ///< HELLO HMAC did not verify
  kBaseMismatch = 3,  ///< HELLO echoed a different base fingerprint
  kBadSequence = 4,   ///< BATCH seq gap or in-flight duplicate
  kOverloaded = 5,    ///< receiver shedding load; retry later
};

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

// ---- Crypto (self-contained; the repo links no external libraries) ------

[[nodiscard]] std::array<std::uint8_t, 32> sha256(std::string_view message);
[[nodiscard]] std::array<std::uint8_t, 32> hmac_sha256(
    std::string_view key, std::string_view message);

/// FNV-1a fold of the base run's CheckpointMeta into the single u64 the
/// handshake pins (logged at ingest startup; `mapit send --expect-base`
/// verifies it client-side).
[[nodiscard]] std::uint64_t combined_fingerprint(const core::CheckpointMeta&);

/// The HMAC a well-formed HELLO must carry for this challenge.
[[nodiscard]] std::array<std::uint8_t, 32> compute_hello_mac(
    std::string_view secret,
    const std::array<std::uint8_t, kTransportNonceSize>& nonce,
    std::uint64_t base_fingerprint, std::string_view session);

// ---- Frame (de)serialization --------------------------------------------

struct ChallengeFrame {
  std::uint32_t version = kTransportVersion;
  std::uint64_t base_fingerprint = 0;
  std::array<std::uint8_t, kTransportNonceSize> nonce{};
};

struct HelloFrame {
  std::uint32_t version = kTransportVersion;
  std::uint64_t base_fingerprint = 0;
  std::string session;
  std::array<std::uint8_t, kTransportMacSize> mac{};
};

struct HelloAckFrame {
  std::uint64_t last_seq = 0;
  std::uint64_t last_offset = 0;
};

struct BatchFrame {
  std::uint64_t seq = 0;
  std::uint64_t end_offset = 0;
  std::vector<std::string> lines;
};

struct AckFrame {
  std::uint64_t seq = 0;
  std::uint64_t end_offset = 0;
};

struct ErrorFrame {
  TransportErrorCode code = TransportErrorCode::kProtocol;
  std::string message;
};

/// Wraps a payload in the 12-byte CRC frame header.
[[nodiscard]] std::string serialize_frame(FrameType type,
                                          std::string_view payload);

[[nodiscard]] std::string serialize_challenge(const ChallengeFrame&);
[[nodiscard]] std::string serialize_hello(const HelloFrame&);
[[nodiscard]] std::string serialize_hello_ack(const HelloAckFrame&);
[[nodiscard]] std::string serialize_batch(const BatchFrame&);
[[nodiscard]] std::string serialize_ack(const AckFrame&);
[[nodiscard]] std::string serialize_error(const ErrorFrame&);

/// Payload parsers; every malformed payload throws TransportError.
[[nodiscard]] ChallengeFrame parse_challenge(std::string_view payload);
[[nodiscard]] HelloFrame parse_hello(std::string_view payload);
[[nodiscard]] HelloAckFrame parse_hello_ack(std::string_view payload);
[[nodiscard]] BatchFrame parse_batch(std::string_view payload);
[[nodiscard]] AckFrame parse_ack(std::string_view payload);
[[nodiscard]] ErrorFrame parse_error(std::string_view payload);

/// Incremental MDP1 frame parser: feed arbitrary byte chunks, pull
/// complete frames. Chunking-invariant by construction (the fuzz harness
/// aborts if whole-buffer and byte-at-a-time feeds ever disagree). Throws
/// TransportError on a bad CRC, oversized size field, nonzero reserved
/// bytes, or unknown frame type; a partial frame is simply "no frame yet".
class FrameReader {
 public:
  void append(std::string_view bytes) { buffer_.append(bytes); }

  /// Extracts the next complete frame. False when more bytes are needed.
  [[nodiscard]] bool next(Frame& out);

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

// ---- Session watermarks --------------------------------------------------

/// Last durable (seq, sender offset) per session — the dedupe key for
/// exactly-once folds. Restored from kRemoteBatch records at journal
/// replay; advanced by the ingest loop only after the journal fsync.
class WatermarkTable {
 public:
  struct Watermark {
    std::uint64_t seq = 0;
    std::uint64_t offset = 0;
  };

  /// Advances `session` to (seq, offset). Watermarks never regress.
  void set(const std::string& session, std::uint64_t seq,
           std::uint64_t offset);

  [[nodiscard]] std::optional<Watermark> get(const std::string& session) const;

  /// Distinct sessions ever journaled.
  [[nodiscard]] std::size_t size() const;

  /// The most recently ACKed (session, watermark), for the HEALTH report.
  [[nodiscard]] std::optional<std::pair<std::string, Watermark>> last_ack()
      const;

  /// Records that an ACK went out for `session` at its current watermark
  /// (duplicate re-ACKs refresh last_ack() without moving the watermark).
  void note_ack(const std::string& session);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Watermark> marks_;
  std::string last_ack_session_;
};

// ---- Server --------------------------------------------------------------

struct TransportServerOptions {
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port
  std::string secret;      ///< shared HMAC secret (required)
  core::CheckpointMeta meta;  ///< base run the handshake pins
  /// Per-connection bound on unACKed batches (the inflight quota); a
  /// session at its quota stops reading (TCP backpressure).
  std::size_t max_inflight_batches = 8;
  /// Idle interval before a HEARTBEAT is sent; 0 disables (tests).
  double heartbeat_seconds = 2.0;
  /// A peer silent this long is presumed dead; 0 disables (tests).
  double deadline_seconds = 15.0;
};

/// One authenticated batch pulled off the wire, not yet journaled.
struct ReceivedBatch {
  std::uint64_t connection_id = 0;
  std::string session;
  std::uint64_t seq = 0;
  std::uint64_t end_offset = 0;
  std::vector<std::string> lines;
};

/// What MDP1 sessions (loop thread) share with the ingest loop: the
/// bounded batch queue and the counters.
class TransportIntake {
 public:
  /// True while the queue has room. Otherwise `connection_id` is noted as
  /// waiting, and the drain() that makes room hands it back.
  [[nodiscard]] bool has_room(std::uint64_t connection_id);
  void push(ReceivedBatch batch);
  /// Moves every queued batch into `out`; `woken` becomes the connections
  /// that waited for room. Returns the number of batches moved.
  std::size_t drain(std::vector<ReceivedBatch>& out,
                    std::vector<std::uint64_t>& woken);

  std::atomic<std::uint64_t> batches{0};     ///< accepted onto the queue
  std::atomic<std::uint64_t> duplicates{0};  ///< re-ACKed, dropped
  std::atomic<std::uint64_t> handshake_rejects{0};
  std::atomic<std::uint64_t> refused_plaintext{0};
  std::atomic<std::size_t> sessions{0};  ///< authenticated, still open

 private:
  std::mutex mutex_;
  std::deque<ReceivedBatch> queue_;
  std::vector<std::uint64_t> waiting_;
};

/// The receiving end of one MDP1 connection, socketless (the fuzz harness
/// drives it directly): magic sniff (else a one-line plaintext refusal),
/// CHALLENGE keyed by `nonce`, HELLO check, then BATCH dedupe against
/// `watermarks` and sequence checks, queuing onto `intake`. At its
/// inflight quota or a full queue it declines to read until the server
/// hands it an ACK or queue room. Malformed bytes end it with a kProtocol
/// ERROR; feed() never throws for them. References must outlive it.
[[nodiscard]] std::unique_ptr<query::Session> make_server_session(
    const TransportServerOptions& options, WatermarkTable& watermarks,
    TransportIntake& intake, std::uint64_t connection_id,
    const std::array<std::uint8_t, kTransportNonceSize>& nonce,
    query::SteadyTime now);

/// The MDP1 listener: a make_server_session factory on a query::EventLoop
/// plus the batch queue. The ingest loop drains batches, journals + fsyncs
/// them, then calls ack(), which hands the ACK to the loop thread: the
/// server never touches the journal, the ingest loop never a socket.
class TransportServer {
 public:
  /// Serves on `loop`. Stop the loop before destroying the server: its
  /// sessions point into it.
  TransportServer(const TransportServerOptions& options,
                  WatermarkTable& watermarks, query::EventLoop& loop);
  /// Serves on a loop of its own, running on its own thread.
  TransportServer(const TransportServerOptions& options,
                  WatermarkTable& watermarks,
                  fault::Io& io = fault::system_io());

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Moves every queued batch into `out`. Never blocks.
  std::size_t drain(std::vector<ReceivedBatch>& out);

  /// Sends a cumulative ACK (seq, end_offset) to `connection_id` and
  /// releases one slot of its inflight quota. A connection that already
  /// died is silently skipped — its sender will re-sync on reconnect.
  void ack(std::uint64_t connection_id, std::uint64_t seq,
           std::uint64_t end_offset);

  /// Authenticated connections right now (HEALTH `sessions=`).
  [[nodiscard]] std::size_t sessions() const {
    return intake_.sessions.load(std::memory_order_relaxed);
  }

  /// Batches accepted onto the queue.
  [[nodiscard]] std::uint64_t batches() const {
    return intake_.batches.load(std::memory_order_relaxed);
  }
  /// BATCH frames at-or-below the session watermark, re-ACKed and dropped.
  [[nodiscard]] std::uint64_t duplicates() const {
    return intake_.duplicates.load(std::memory_order_relaxed);
  }
  /// Connections rejected at HELLO (bad HMAC / fingerprint / protocol).
  [[nodiscard]] std::uint64_t handshake_rejects() const {
    return intake_.handshake_rejects.load(std::memory_order_relaxed);
  }
  /// Connections that opened with non-MDP1 bytes and were refused.
  [[nodiscard]] std::uint64_t refused_plaintext() const {
    return intake_.refused_plaintext.load(std::memory_order_relaxed);
  }

 private:
  void listen();

  TransportServerOptions options_;
  WatermarkTable* watermarks_;
  TransportIntake intake_;
  std::mt19937_64 nonces_;  ///< loop thread only
  std::uint16_t port_ = 0;
  query::EventLoop* loop_ = nullptr;
  /// Standalone mode only. Declared last: destroyed (stopped) first, so no
  /// session outlives the state above.
  std::unique_ptr<query::EventLoop> own_loop_;
};

}  // namespace mapit::ingest
