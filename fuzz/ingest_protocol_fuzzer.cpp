// Fuzz target: the MDP1 receive path (ingest/transport.h) — the bytes a
// hostile or corrupted peer can put on the delta-transport socket.
//
// Frame layer, checked on every input:
//   1. No escape: FrameReader and the typed payload parsers only ever
//     throw TransportError. Anything else (std::bad_alloc from a trusted
//     length field, std::out_of_range, an InvariantError) is a bug that
//     would end the receiver's socket loop in production.
//   2. Chunking invariance: feeding the same bytes one byte at a time
//     must yield exactly the frame sequence (and the same accept/reject
//     outcome) of a single whole-buffer delivery — TCP segmentation must
//     never change what the receiver decodes.
//   3. Round-trip: a payload the typed parser accepts must re-serialize
//     to byte-identical frame bytes. The wire format has one canonical
//     encoding; parse/serialize drift here is how a resent batch could
//     stop matching its watermark.
//
// Session layer: the same bytes as one connection's input to the
// socketless session the receiver runs (make_server_session; fixed
// secret, nonce and base, and one session watermark pre-seeded so
// duplicates are reachable):
//   4. No escape: only TransportError may leave feed().
//   5. Authentication: no batch is queued unless the first frame after
//     the magic (heartbeats aside) is a HELLO whose MAC verifies.
//   6. Chunking invariance: a byte-at-a-time feed sends the same bytes
//     and queues the same batches as a whole-buffer feed. Like the event
//     loop, both stop feeding while the session pauses reading.
//
// Replayed/duplicate/oversized/zero-length frames are all just byte
// patterns to this harness; the committed corpus seeds each of them, and
// fuzz/regressions/ingest_protocol/session_* walk the session through the
// handshake into the BATCH state.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "ingest/transport.h"
#include "query/event_loop.h"

namespace {

using namespace mapit::ingest;

struct FeedResult {
  std::vector<Frame> frames;
  bool rejected = false;

  friend bool operator==(const FeedResult&, const FeedResult&) = default;
};

FeedResult feed(std::string_view bytes, std::size_t chunk) {
  FeedResult result;
  FrameReader reader;
  try {
    for (std::size_t i = 0; i < bytes.size(); i += chunk) {
      reader.append(bytes.substr(i, chunk));
      Frame frame;
      while (reader.next(frame)) result.frames.push_back(frame);
    }
  } catch (const TransportError&) {
    result.rejected = true;
  }
  return result;
}

void check_typed_roundtrip(const Frame& frame) {
  const std::string framed = serialize_frame(frame.type, frame.payload);
  try {
    switch (frame.type) {
      case FrameType::kChallenge:
        if (serialize_challenge(parse_challenge(frame.payload)) != framed) {
          std::abort();
        }
        break;
      case FrameType::kHello:
        if (serialize_hello(parse_hello(frame.payload)) != framed) {
          std::abort();
        }
        break;
      case FrameType::kHelloAck:
        if (serialize_hello_ack(parse_hello_ack(frame.payload)) != framed) {
          std::abort();
        }
        break;
      case FrameType::kBatch:
        if (serialize_batch(parse_batch(frame.payload)) != framed) {
          std::abort();
        }
        break;
      case FrameType::kAck:
        if (serialize_ack(parse_ack(frame.payload)) != framed) {
          std::abort();
        }
        break;
      case FrameType::kError:
        if (serialize_error(parse_error(frame.payload)) != framed) {
          std::abort();
        }
        break;
      case FrameType::kHeartbeat:
        break;  // payload is ignored by both ends
    }
  } catch (const TransportError&) {
    // A well-framed envelope around a malformed payload: rejected with
    // the right type, connection-fatal, never journal-corrupting.
  }
}

// ---- session layer -------------------------------------------------------

constexpr char kSecret[] = "fuzz secret";
constexpr std::array<std::uint8_t, kTransportNonceSize> kNonce{};

const TransportServerOptions& session_options() {
  static const TransportServerOptions options = [] {
    TransportServerOptions out;
    out.secret = kSecret;
    out.meta.config_hash = 1;
    out.meta.corpus_fingerprint = 2;
    out.meta.rib_fingerprint = 3;
    out.meta.datasets_fingerprint = 4;
    out.max_inflight_batches = 4;  // small, so inputs reach the pause
    return out;
  }();
  return options;
}

struct SessionResult {
  std::string sent;
  std::vector<ReceivedBatch> batches;
  bool open = true;
};

bool same_batches(const std::vector<ReceivedBatch>& a,
                  const std::vector<ReceivedBatch>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ReceivedBatch& x, const ReceivedBatch& y) {
                      return x.connection_id == y.connection_id &&
                             x.session == y.session && x.seq == y.seq &&
                             x.end_offset == y.end_offset &&
                             x.lines == y.lines;
                    });
}

SessionResult drive_session(std::string_view bytes, std::size_t chunk) {
  WatermarkTable watermarks;
  watermarks.set("mon-dup", 2, 200);
  TransportIntake intake;
  SessionResult result;
  {
    const auto session = make_server_session(
        session_options(), watermarks, intake, 1, kNonce, {});
    try {
      for (std::size_t i = 0; i < bytes.size() && session->may_read();
           i += chunk) {
        if (!session->feed(bytes.substr(i, chunk), {}, result.sent)) {
          result.open = false;
          break;
        }
      }
    } catch (const TransportError&) {
      // The one exception the session contract allows.
      result.open = false;
    }
  }
  std::vector<std::uint64_t> woken;
  intake.drain(result.batches, woken);
  return result;
}

/// Independent reading of the handshake: the magic, then (heartbeats
/// aside) a HELLO for this base whose MAC verifies under kSecret/kNonce.
bool opens_with_verified_hello(std::string_view bytes) {
  if (bytes.substr(0, sizeof(kTransportMagic)) !=
      std::string_view(kTransportMagic, sizeof(kTransportMagic))) {
    return false;
  }
  const std::uint64_t base = combined_fingerprint(session_options().meta);
  FrameReader reader;
  reader.append(bytes.substr(sizeof(kTransportMagic)));
  Frame frame;
  try {
    while (reader.next(frame)) {
      if (frame.type == FrameType::kHeartbeat) continue;
      if (frame.type != FrameType::kHello) return false;
      const HelloFrame hello = parse_hello(frame.payload);
      return hello.version == kTransportVersion &&
             hello.base_fingerprint == base &&
             hello.mac ==
                 compute_hello_mac(kSecret, kNonce, base, hello.session);
    }
  } catch (const TransportError&) {
  }
  return false;
}

void check_session(std::string_view bytes) {
  const SessionResult whole =
      drive_session(bytes, std::max<std::size_t>(bytes.size(), 1));
  const SessionResult bytewise = drive_session(bytes, 1);
  if (whole.sent != bytewise.sent || whole.open != bytewise.open ||
      !same_batches(whole.batches, bytewise.batches)) {
    std::abort();  // chunking changed what the receiver did
  }
  if (!whole.batches.empty() && !opens_with_verified_hello(bytes)) {
    std::abort();  // a batch got in without a verified HELLO
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const FeedResult whole = feed(bytes, std::max<std::size_t>(size, 1));
  const FeedResult bytewise = feed(bytes, 1);
  if (!(whole == bytewise)) std::abort();  // chunking changed the frames
  for (const Frame& frame : whole.frames) check_typed_roundtrip(frame);
  check_session(bytes);
  return 0;
}
