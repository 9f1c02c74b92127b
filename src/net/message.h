// Wire messages for the shuffle/control transport (DESIGN.md §13).
//
// Everything that crosses the node boundary — shuffle ledger deliveries and
// their acks, heartbeats carrying heap stats, and the control-plane verbs
// (join/dispatch/result) — is one Message. Messages serialize to compact
// serde bytes; the transport packs batches of them into checksummed
// io::FrameCodec frames, so a bit flip anywhere between two nodes is caught
// at decode time instead of deserializing garbage into a partition.
#ifndef ITASK_NET_MESSAGE_H_
#define ITASK_NET_MESSAGE_H_

#include <cstdint>
#include <string>

#include "common/byte_buffer.h"

namespace itask::net {

// The driver/coordinator endpoint id. Nodes are their cluster ids (0..N-1).
inline constexpr int kDriverEndpoint = -1;

enum class MsgKind : std::uint8_t {
  kShuffleData = 0,  // Ledger delivery: payload = serialized partition bytes.
  kShuffleAck,       // Receiver's delivery verdict (see AckStatus in |a|).
  kHeartbeat,        // Ctrl beats: a=heap used bytes, b=heap capacity bytes.
                     // Fabric beats carry no payload.
  kJoin,             // Control: text=node name, a=heap capacity,
                     // b=previous node id + 1 for a session resume (0=fresh).
  kJoinAck,          // Control: a=assigned node id, b=cluster size,
                     // c=server steady-clock now (ns) for epoch alignment.
  kDispatch,         // Control: text=app name, payload=serialized job config.
  kResult,           // Control: a=checksum, b=records,
                     // c=(result seq << 1) | success — the seq dedups
                     // re-shipped results after a ctrl reconnect.
  kBye,              // Control: orderly leave.
  kMetrics,          // Control: payload=EncodeRunMetrics snapshot (telemetry
                     // shipping, piggybacked on the heartbeat cadence).
};

// obs::FlowEventName() in trace_export.cc names flow arrows by these numeric
// values (obs cannot include this header); keep the two tables in lockstep.
static_assert(static_cast<std::uint8_t>(MsgKind::kMetrics) == 8,
              "update obs FlowEventName table when MsgKind changes");

// kShuffleAck |a| values.
enum class AckStatus : std::uint64_t {
  kOk = 0,        // Materialized and pushed (or recognized duplicate).
  kBackpressure,  // Receiver heap full (OME) — sender should back off/retry.
  kRefused,       // Receiver fenced/draining — pick another owner.
};

constexpr const char* MsgKindName(MsgKind k) {
  switch (k) {
    case MsgKind::kShuffleData: return "shuffle_data";
    case MsgKind::kShuffleAck: return "shuffle_ack";
    case MsgKind::kHeartbeat: return "heartbeat";
    case MsgKind::kJoin: return "join";
    case MsgKind::kJoinAck: return "join_ack";
    case MsgKind::kDispatch: return "dispatch";
    case MsgKind::kResult: return "result";
    case MsgKind::kBye: return "bye";
    case MsgKind::kMetrics: return "metrics";
  }
  return "unknown";
}

struct Message {
  MsgKind kind = MsgKind::kHeartbeat;
  std::int32_t src = 0;  // Sending endpoint (node id or kDriverEndpoint).
  std::int32_t dst = 0;  // Receiving endpoint.

  // Shuffle identity — the ledger's (split, epoch, seq) exactly-once key.
  std::int64_t split = -1;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint32_t type = 0;  // Partition TypeId of the payload.
  std::uint64_t tag = 0;   // Partition tag (merge group / shuffle channel).

  // Kind-specific scalars (documented per enumerator above).
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  // Causal-tracing identity (DESIGN.md §15.1). 0 = unstamped. The sender
  // stamps both and emits a kMsgSend obs event with |span|; the receiver
  // echoes |span| into its kMsgRecv event, pairing the two ends of the hop in
  // a merged trace without any shared state.
  std::uint64_t trace = 0;  // Job-level trace id (obs::TraceIdFromSeed).
  std::uint64_t span = 0;   // Per-message span id (obs::SpanId).

  std::string text;              // Names (join, dispatch app).
  common::ByteBuffer payload;    // Serialized partition / config bytes.
};

// Appends |msg| to |out| as [varint length][body]; bodies self-delimit so a
// frame can carry any number of messages back to back.
void EncodeMessage(const Message& msg, common::ByteBuffer* out);

// Decodes one length-prefixed message at |buf|'s cursor, advancing it.
// Throws std::runtime_error on a malformed body.
Message DecodeMessage(common::ByteBuffer* buf);

}  // namespace itask::net

#endif  // ITASK_NET_MESSAGE_H_
