#include "ingest/transport.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/wire.h"

namespace mapit::ingest {

namespace {

using wire_cursor = core::wire::Cursor;
using core::wire::append_u16;
using core::wire::append_u32;
using core::wire::append_u64;
using core::wire::crc32;

// ---- SHA-256 (FIPS 180-4; self-contained like core/wire's CRC table) ----

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

[[nodiscard]] std::uint32_t rotr(std::uint32_t value, int bits) {
  return (value >> bits) | (value << (32 - bits));
}

void sha256_block(std::uint32_t state[8], const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

/// Constant-time digest comparison: an attacker probing HELLO must not
/// learn a prefix of the expected MAC from response timing.
[[nodiscard]] bool digest_equal(const std::array<std::uint8_t, 32>& a,
                                const std::array<std::uint8_t, 32>& b) {
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<unsigned>(a[i] ^ b[i]);
  }
  return diff == 0;
}

/// Wraps a Cursor-based payload parse, converting the cursor's
/// CheckpointError overruns into TransportError — wire garbage is a
/// connection problem, never the exit-4 artifact-corruption family.
template <typename Parse>
[[nodiscard]] auto parse_payload(const char* what, Parse parse) {
  try {
    return parse();
  } catch (const TransportError&) {
    throw;
  } catch (const core::CheckpointError& error) {
    throw TransportError(std::string("malformed MDP1 ") + what + ": " +
                         error.what());
  }
}

/// Global bound on accepted-but-not-yet-journaled batches; past it every
/// session stops reading (TCP backpressure).
constexpr std::size_t kMaxQueuedBatches = 256;

constexpr char kPlaintextRefusal[] =
    "ERR this port speaks MDP1 (framed transport); use `mapit send` to "
    "deliver delta lines\n";

[[nodiscard]] std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

// ---- Crypto --------------------------------------------------------------

std::array<std::uint8_t, 32> sha256(std::string_view message) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::size_t offset = 0;
  while (message.size() - offset >= 64) {
    sha256_block(state,
                 reinterpret_cast<const std::uint8_t*>(message.data()) +
                     offset);
    offset += 64;
  }
  // Final block(s): message tail, 0x80, zero pad, 64-bit bit length.
  std::uint8_t tail[128] = {};
  const std::size_t rest = message.size() - offset;
  std::memcpy(tail, message.data() + offset, rest);
  tail[rest] = 0x80;
  const std::size_t tail_blocks = (rest + 1 + 8 > 64) ? 2 : 1;
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_blocks * 64 - 1 - i] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
  sha256_block(state, tail);
  if (tail_blocks == 2) sha256_block(state, tail + 64);
  std::array<std::uint8_t, 32> digest{};
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return digest;
}

std::array<std::uint8_t, 32> hmac_sha256(std::string_view key,
                                         std::string_view message) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const auto digest = sha256(key);
    std::memcpy(block.data(), digest.data(), digest.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }
  std::string inner;
  inner.reserve(block.size() + message.size());
  for (const std::uint8_t byte : block) {
    inner.push_back(static_cast<char>(byte ^ 0x36));
  }
  inner.append(message);
  const auto inner_digest = sha256(inner);
  std::string outer;
  outer.reserve(block.size() + inner_digest.size());
  for (const std::uint8_t byte : block) {
    outer.push_back(static_cast<char>(byte ^ 0x5c));
  }
  outer.append(reinterpret_cast<const char*>(inner_digest.data()),
               inner_digest.size());
  return sha256(outer);
}

std::uint64_t combined_fingerprint(const core::CheckpointMeta& meta) {
  std::string bytes;
  bytes.reserve(32);
  append_u64(bytes, meta.config_hash);
  append_u64(bytes, meta.corpus_fingerprint);
  append_u64(bytes, meta.rib_fingerprint);
  append_u64(bytes, meta.datasets_fingerprint);
  return core::fingerprint_bytes(core::kFingerprintSeed, bytes);
}

std::array<std::uint8_t, 32> compute_hello_mac(
    std::string_view secret,
    const std::array<std::uint8_t, kTransportNonceSize>& nonce,
    std::uint64_t base_fingerprint, std::string_view session) {
  std::string message;
  message.reserve(4 + 4 + nonce.size() + 8 + session.size());
  message.append(kTransportMagic, sizeof(kTransportMagic));
  append_u32(message, kTransportVersion);
  message.append(reinterpret_cast<const char*>(nonce.data()), nonce.size());
  append_u64(message, base_fingerprint);
  message.append(session);
  return hmac_sha256(secret, message);
}

// ---- Frame (de)serialization --------------------------------------------

std::string serialize_frame(FrameType type, std::string_view payload) {
  MAPIT_ENSURE(payload.size() <= kMaxTransportPayload,
               "MDP1 frame payload exceeds cap");
  std::string out;
  out.reserve(kTransportFrameSize + payload.size());
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  append_u32(out, crc32(payload));
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(type)));
  out.append(3, '\0');  // reserved
  out.append(payload);
  return out;
}

std::string serialize_challenge(const ChallengeFrame& frame) {
  std::string payload;
  append_u32(payload, frame.version);
  append_u64(payload, frame.base_fingerprint);
  payload.append(reinterpret_cast<const char*>(frame.nonce.data()),
                 frame.nonce.size());
  return serialize_frame(FrameType::kChallenge, payload);
}

std::string serialize_hello(const HelloFrame& frame) {
  MAPIT_ENSURE(!frame.session.empty() &&
                   frame.session.size() <= kMaxTransportSession,
               "MDP1 session name length out of range");
  std::string payload;
  append_u32(payload, frame.version);
  append_u64(payload, frame.base_fingerprint);
  append_u16(payload, static_cast<std::uint16_t>(frame.session.size()));
  payload.append(frame.session);
  payload.append(reinterpret_cast<const char*>(frame.mac.data()),
                 frame.mac.size());
  return serialize_frame(FrameType::kHello, payload);
}

std::string serialize_hello_ack(const HelloAckFrame& frame) {
  std::string payload;
  append_u64(payload, frame.last_seq);
  append_u64(payload, frame.last_offset);
  return serialize_frame(FrameType::kHelloAck, payload);
}

std::string serialize_batch(const BatchFrame& frame) {
  std::string payload;
  append_u64(payload, frame.seq);
  append_u64(payload, frame.end_offset);
  append_u32(payload, static_cast<std::uint32_t>(frame.lines.size()));
  for (const std::string& line : frame.lines) {
    append_u32(payload, static_cast<std::uint32_t>(line.size()));
    payload.append(line);
  }
  return serialize_frame(FrameType::kBatch, payload);
}

std::string serialize_ack(const AckFrame& frame) {
  std::string payload;
  append_u64(payload, frame.seq);
  append_u64(payload, frame.end_offset);
  return serialize_frame(FrameType::kAck, payload);
}

std::string serialize_error(const ErrorFrame& frame) {
  std::string payload;
  append_u16(payload, static_cast<std::uint16_t>(frame.code));
  payload.append(frame.message);
  return serialize_frame(FrameType::kError, payload);
}

ChallengeFrame parse_challenge(std::string_view payload) {
  return parse_payload("CHALLENGE", [&] {
    wire_cursor cursor(payload, "MDP1 CHALLENGE");
    ChallengeFrame out;
    out.version = cursor.read_u32();
    out.base_fingerprint = cursor.read_u64();
    const std::string_view nonce = cursor.read_bytes(kTransportNonceSize);
    std::memcpy(out.nonce.data(), nonce.data(), nonce.size());
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 CHALLENGE has trailing bytes");
    }
    return out;
  });
}

HelloFrame parse_hello(std::string_view payload) {
  return parse_payload("HELLO", [&] {
    wire_cursor cursor(payload, "MDP1 HELLO");
    HelloFrame out;
    out.version = cursor.read_u32();
    out.base_fingerprint = cursor.read_u64();
    const std::size_t session_len = cursor.read_u16();
    if (session_len == 0 || session_len > kMaxTransportSession) {
      throw TransportError("MDP1 HELLO session name length " +
                           std::to_string(session_len) + " out of range");
    }
    out.session = std::string(cursor.read_bytes(session_len));
    const std::string_view mac = cursor.read_bytes(kTransportMacSize);
    std::memcpy(out.mac.data(), mac.data(), mac.size());
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 HELLO has trailing bytes");
    }
    return out;
  });
}

HelloAckFrame parse_hello_ack(std::string_view payload) {
  return parse_payload("HELLO_ACK", [&] {
    wire_cursor cursor(payload, "MDP1 HELLO_ACK");
    HelloAckFrame out;
    out.last_seq = cursor.read_u64();
    out.last_offset = cursor.read_u64();
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 HELLO_ACK has trailing bytes");
    }
    return out;
  });
}

BatchFrame parse_batch(std::string_view payload) {
  return parse_payload("BATCH", [&] {
    wire_cursor cursor(payload, "MDP1 BATCH");
    BatchFrame out;
    out.seq = cursor.read_u64();
    out.end_offset = cursor.read_u64();
    const std::uint32_t count = cursor.read_u32();
    out.lines.reserve(std::min<std::uint32_t>(count, 4096));
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t len = cursor.read_u32();
      if (len > kMaxTransportLine) {
        throw TransportError("MDP1 BATCH line length " +
                             std::to_string(len) + " exceeds cap");
      }
      out.lines.emplace_back(cursor.read_bytes(len));
    }
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 BATCH has trailing bytes");
    }
    return out;
  });
}

AckFrame parse_ack(std::string_view payload) {
  return parse_payload("ACK", [&] {
    wire_cursor cursor(payload, "MDP1 ACK");
    AckFrame out;
    out.seq = cursor.read_u64();
    out.end_offset = cursor.read_u64();
    if (!cursor.exhausted()) {
      throw TransportError("MDP1 ACK has trailing bytes");
    }
    return out;
  });
}

ErrorFrame parse_error(std::string_view payload) {
  return parse_payload("ERROR", [&] {
    wire_cursor cursor(payload, "MDP1 ERROR");
    ErrorFrame out;
    out.code = static_cast<TransportErrorCode>(cursor.read_u16());
    out.message = std::string(cursor.rest());
    return out;
  });
}

// ---- FrameReader ---------------------------------------------------------

bool FrameReader::next(Frame& out) {
  if (buffer_.size() < kTransportFrameSize) return false;
  wire_cursor header(std::string_view(buffer_).substr(0, kTransportFrameSize),
                     "MDP1 frame header");
  const std::uint32_t payload_size = header.read_u32();
  const std::uint32_t expected_crc = header.read_u32();
  const std::uint8_t type = header.read_u8();
  const bool reserved_zero = header.read_u8() == 0 && header.read_u8() == 0 &&
                             header.read_u8() == 0;
  if (payload_size > kMaxTransportPayload) {
    throw TransportError("MDP1 frame payload size " +
                         std::to_string(payload_size) + " exceeds cap");
  }
  if (!reserved_zero) {
    throw TransportError("MDP1 frame reserved bytes are nonzero");
  }
  if (type < static_cast<std::uint8_t>(FrameType::kChallenge) ||
      type > static_cast<std::uint8_t>(FrameType::kError)) {
    throw TransportError("MDP1 frame has unknown type " +
                         std::to_string(type));
  }
  if (buffer_.size() - kTransportFrameSize < payload_size) return false;
  const std::string_view payload =
      std::string_view(buffer_).substr(kTransportFrameSize, payload_size);
  if (crc32(payload) != expected_crc) {
    throw TransportError("MDP1 frame CRC mismatch");
  }
  out.type = static_cast<FrameType>(type);
  out.payload = std::string(payload);
  buffer_.erase(0, kTransportFrameSize + payload_size);
  return true;
}

// ---- WatermarkTable ------------------------------------------------------

void WatermarkTable::set(const std::string& session, std::uint64_t seq,
                         std::uint64_t offset) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Watermark& mark = marks_[session];
  MAPIT_ENSURE(seq >= mark.seq && offset >= mark.offset,
               "session watermark may never regress");
  mark.seq = seq;
  mark.offset = offset;
  last_ack_session_ = session;
}

std::optional<WatermarkTable::Watermark> WatermarkTable::get(
    const std::string& session) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = marks_.find(session);
  if (it == marks_.end()) return std::nullopt;
  return it->second;
}

std::size_t WatermarkTable::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return marks_.size();
}

std::optional<std::pair<std::string, WatermarkTable::Watermark>>
WatermarkTable::last_ack() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = marks_.find(last_ack_session_);
  if (it == marks_.end()) return std::nullopt;
  return std::make_pair(it->first, it->second);
}

void WatermarkTable::note_ack(const std::string& session) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (marks_.count(session) != 0) last_ack_session_ = session;
}

// ---- TransportIntake -----------------------------------------------------

bool TransportIntake::has_room(std::uint64_t connection_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.size() < kMaxQueuedBatches) return true;
  waiting_.push_back(connection_id);  // a repeat only costs a spare wakeup
  return false;
}

void TransportIntake::push(ReceivedBatch batch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  queue_.push_back(std::move(batch));
  batches.fetch_add(1, std::memory_order_relaxed);
}

std::size_t TransportIntake::drain(std::vector<ReceivedBatch>& out,
                                   std::vector<std::uint64_t>& woken) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = queue_.size();
  for (ReceivedBatch& batch : queue_) out.push_back(std::move(batch));
  queue_.clear();
  woken = std::exchange(waiting_, {});
  return count;
}

// ---- ServerSession -------------------------------------------------------

namespace {

class ServerSession final : public query::Session {
 public:
  ServerSession(const TransportServerOptions& options,
                WatermarkTable& watermarks, TransportIntake& intake,
                std::uint64_t connection_id,
                const std::array<std::uint8_t, kTransportNonceSize>& nonce,
                query::SteadyTime now)
      : options_(&options),
        watermarks_(&watermarks),
        intake_(&intake),
        id_(connection_id),
        nonce_(nonce),
        fingerprint_(combined_fingerprint(options.meta)),
        last_rx_(now),
        last_tx_(now) {}
  ~ServerSession() override { finish(); }

  bool feed(std::string_view bytes, query::SteadyTime now,
            std::string& out) override {
    return guarded(out, [&] {
      if (bytes.empty()) {  // peer half-closed: nothing more will come
        finish();
        return;
      }
      last_rx_ = now;
      // Stream magic: decided at the first byte that leaves it.
      while (state_ == State::kMagic && !bytes.empty()) {
        if (bytes.front() != kTransportMagic[magic_seen_]) {
          // Not an MDP1 client: one-line diagnosis, clean close.
          intake_->refused_plaintext.fetch_add(1, std::memory_order_relaxed);
          out += kPlaintextRefusal;
          finish();
          return;
        }
        bytes.remove_prefix(1);
        if (++magic_seen_ == sizeof(kTransportMagic)) {
          send(serialize_challenge(ChallengeFrame{
                   .base_fingerprint = fingerprint_, .nonce = nonce_}),
               now, out);
          state_ = State::kHello;
        }
      }
      reader_.append(bytes);
      take_frames(now, out);
    });
  }

  [[nodiscard]] bool may_read() const override { return !blocked_; }

  [[nodiscard]] query::SteadyTime deadline() const override {
    return std::min(read_deadline(), heartbeat_due());
  }

  bool on_deadline(query::SteadyTime now, std::string& out) override {
    if (now >= read_deadline()) {
      finish();  // peer presumed dead
      return false;
    }
    if (now >= heartbeat_due()) {
      send(serialize_frame(FrameType::kHeartbeat, ""), now, out);
    }
    return true;
  }

  /// One of this session's batches is durable: the cumulative ACK, one
  /// inflight slot back, and the frames that waited for it.
  bool ack(std::uint64_t seq, std::uint64_t end_offset,
           query::SteadyTime now, std::string& out) {
    if (inflight_ > 0) --inflight_;
    send(serialize_ack(AckFrame{.seq = seq, .end_offset = end_offset}), now,
         out);
    return resume(now, out);
  }

  /// Room again (quota or queue): takes the frames that waited for it.
  bool resume(query::SteadyTime now, std::string& out) {
    return guarded(out, [&] {
      if (blocked_) last_rx_ = now;  // the wait was ours, not the peer's
      take_frames(now, out);
    });
  }

 private:
  enum class State { kMagic, kHello, kStream, kDone };

  /// When a silent peer counts as dead. A session paused by its own quota
  /// is not waiting on the peer.
  [[nodiscard]] query::SteadyTime read_deadline() const {
    return options_->deadline_seconds > 0 && !blocked_ &&
                   state_ != State::kDone
               ? last_rx_ + to_duration(options_->deadline_seconds)
               : query::SteadyTime::max();
  }

  /// When an idle link next owes the peer a HEARTBEAT.
  [[nodiscard]] query::SteadyTime heartbeat_due() const {
    return options_->heartbeat_seconds > 0 &&
                   (state_ == State::kHello || state_ == State::kStream)
               ? last_tx_ + to_duration(options_->heartbeat_seconds)
               : query::SteadyTime::max();
  }

  /// Runs `step`; a TransportError (malformed peer bytes) ends the session
  /// with a kProtocol ERROR. False once the session has ended.
  template <typename Step>
  bool guarded(std::string& out, Step step) {
    if (state_ == State::kDone) return false;
    try {
      step();
    } catch (const TransportError& error) {
      reject(TransportErrorCode::kProtocol, error.what(), out);
    }
    return state_ != State::kDone;
  }

  /// Takes every complete frame it has room for. Throws TransportError.
  void take_frames(query::SteadyTime now, std::string& out) {
    Frame frame;
    while (state_ == State::kHello || state_ == State::kStream) {
      // Room for one more batch — the inflight quota, then the shared
      // queue — or stop: reading pauses (TCP backpressure) until the
      // server hands this session an ACK or queue room.
      blocked_ = state_ == State::kStream &&
                 (inflight_ >= options_->max_inflight_batches ||
                  !intake_->has_room(id_));
      if (blocked_ || !reader_.next(frame)) return;
      if (frame.type == FrameType::kHeartbeat) continue;
      if (state_ == State::kHello) {
        on_hello(frame, now, out);
      } else {
        on_batch(frame, now, out);
      }
    }
  }

  void on_hello(const Frame& frame, query::SteadyTime now, std::string& out) {
    const auto refuse = [&](TransportErrorCode code, const std::string& why) {
      intake_->handshake_rejects.fetch_add(1, std::memory_order_relaxed);
      reject(code, why, out);
    };
    if (frame.type != FrameType::kHello) {
      refuse(TransportErrorCode::kProtocol, "expected HELLO after CHALLENGE");
      return;
    }
    const HelloFrame hello = parse_hello(frame.payload);
    if (hello.version != kTransportVersion) {
      refuse(TransportErrorCode::kProtocol,
             "unsupported MDP1 version " + std::to_string(hello.version));
    } else if (hello.base_fingerprint != fingerprint_) {
      refuse(TransportErrorCode::kBaseMismatch,
             "sender pins a different base run (fingerprint mismatch)");
    } else if (!digest_equal(compute_hello_mac(options_->secret, nonce_,
                                               fingerprint_, hello.session),
                             hello.mac)) {
      refuse(TransportErrorCode::kAuthFailed, "HELLO authentication failed");
    } else {
      session_ = hello.session;
      HelloAckFrame hello_ack;
      if (const auto mark = watermarks_->get(session_)) {
        hello_ack.last_seq = mark->seq;
        hello_ack.last_offset = mark->offset;
      }
      next_seq_ = hello_ack.last_seq + 1;
      state_ = State::kStream;
      intake_->sessions.fetch_add(1, std::memory_order_relaxed);
      send(serialize_hello_ack(hello_ack), now, out);
    }
  }

  void on_batch(const Frame& frame, query::SteadyTime now, std::string& out) {
    if (frame.type != FrameType::kBatch) {
      reject(TransportErrorCode::kProtocol,
             "unexpected frame type " +
                 std::to_string(static_cast<int>(frame.type)),
             out);
      return;
    }
    BatchFrame batch = parse_batch(frame.payload);
    const auto durable = watermarks_->get(session_);
    if (batch.seq == 0) {
      reject(TransportErrorCode::kBadSequence,
             "batch sequence numbers are 1-based", out);
    } else if (durable && batch.seq <= durable->seq) {
      // Replayed frame from a sender that missed our ACK: dedupe and
      // re-ACK the durable watermark so it advances.
      intake_->duplicates.fetch_add(1, std::memory_order_relaxed);
      watermarks_->note_ack(session_);
      send(serialize_ack(AckFrame{.seq = durable->seq,
                                  .end_offset = durable->offset}),
           now, out);
    } else if (batch.seq != next_seq_) {
      reject(TransportErrorCode::kBadSequence,
             "expected seq " + std::to_string(next_seq_) + ", got " +
                 std::to_string(batch.seq),
             out);
    } else {
      intake_->push(ReceivedBatch{id_, session_, batch.seq, batch.end_offset,
                                  std::move(batch.lines)});
      ++inflight_;
      ++next_seq_;
    }
  }

  /// Sends a typed ERROR frame and ends the session.
  void reject(TransportErrorCode code, const std::string& message,
              std::string& out) {
    out += serialize_error(ErrorFrame{.code = code, .message = message});
    finish();
  }

  void send(std::string_view bytes, query::SteadyTime now, std::string& out) {
    out.append(bytes);
    last_tx_ = now;
  }

  void finish() {
    if (state_ == State::kStream) {
      intake_->sessions.fetch_sub(1, std::memory_order_relaxed);
    }
    state_ = State::kDone;
  }

  const TransportServerOptions* options_;
  WatermarkTable* watermarks_;
  TransportIntake* intake_;
  std::uint64_t id_;
  std::array<std::uint8_t, kTransportNonceSize> nonce_;
  std::uint64_t fingerprint_;
  State state_ = State::kMagic;
  std::size_t magic_seen_ = 0;  ///< magic bytes matched so far
  FrameReader reader_;
  std::string session_;
  std::uint64_t next_seq_ = 1;
  std::size_t inflight_ = 0;  ///< queued batches not yet ACKed
  bool blocked_ = false;      ///< waiting for quota or queue room
  query::SteadyTime last_rx_;
  query::SteadyTime last_tx_;
};

}  // namespace

std::unique_ptr<query::Session> make_server_session(
    const TransportServerOptions& options, WatermarkTable& watermarks,
    TransportIntake& intake, std::uint64_t connection_id,
    const std::array<std::uint8_t, kTransportNonceSize>& nonce,
    query::SteadyTime now) {
  return std::make_unique<ServerSession>(options, watermarks, intake,
                                         connection_id, nonce, now);
}

// ---- TransportServer -----------------------------------------------------

TransportServer::TransportServer(const TransportServerOptions& options,
                                 WatermarkTable& watermarks,
                                 query::EventLoop& loop)
    : options_(options),
      watermarks_(&watermarks),
      nonces_(std::random_device{}()),
      loop_(&loop) {
  listen();
}

TransportServer::TransportServer(const TransportServerOptions& options,
                                 WatermarkTable& watermarks, fault::Io& io)
    : options_(options),
      watermarks_(&watermarks),
      nonces_(std::random_device{}()),
      own_loop_(std::make_unique<query::EventLoop>(io)) {
  loop_ = own_loop_.get();
  listen();
  loop_->start();
}

void TransportServer::listen() {
  MAPIT_ENSURE(!options_.secret.empty(),
               "MDP1 transport requires a shared secret");
  query::ServerOptions listener;
  listener.port = options_.port;
  port_ = loop_->listen(listener, [this](std::uint64_t id,
                                         query::SteadyTime now) {
    // The nonce only needs uniqueness per connection: it keys the HELLO
    // MAC to this challenge, so a recorded HELLO cannot be replayed.
    std::array<std::uint8_t, kTransportNonceSize> nonce{};
    for (std::uint8_t& byte : nonce) {
      byte = static_cast<std::uint8_t>(nonces_());
    }
    return make_server_session(options_, *watermarks_, intake_, id, nonce,
                               now);
  });
}

std::size_t TransportServer::drain(std::vector<ReceivedBatch>& out) {
  std::vector<std::uint64_t> woken;
  const std::size_t count = intake_.drain(out, woken);
  for (const std::uint64_t id : woken) {
    loop_->post([loop = loop_, id] {
      loop->update(id, [](query::Session& session, std::string& bytes) {
        // Every id this server names came from its own factory.
        return static_cast<ServerSession&>(session).resume(
            std::chrono::steady_clock::now(), bytes);
      });
    });
  }
  return count;
}

void TransportServer::ack(std::uint64_t connection_id, std::uint64_t seq,
                          std::uint64_t end_offset) {
  loop_->post([loop = loop_, connection_id, seq, end_offset] {
    loop->update(connection_id, [&](query::Session& session,
                                    std::string& bytes) {
      return static_cast<ServerSession&>(session).ack(
          seq, end_offset, std::chrono::steady_clock::now(), bytes);
    });
  });
}

}  // namespace mapit::ingest
