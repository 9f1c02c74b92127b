// ShuffleFabric: routes one job's shuffle ledger deliveries, acks and
// heartbeats over a net::Transport (DESIGN.md §13).
//
// Each fault-tolerant job owns one fabric (and therefore its own transport
// instance — with ephemeral TCP ports, two tenants' fabrics never collide on
// an endpoint). The fabric registers one endpoint per node plus the driver
// endpoint, then wires itself into the job's RecoveryContext:
//
//  - delivery channel: DeliverLocked hands (ShuffleWireId, bytes) here; the
//    fabric sends a kShuffleData message from the driver endpoint and blocks
//    for the matching kShuffleAck (ack_timeout_ms). Receiver-side dedup by
//    (split, epoch, seq) makes sender retries after a lost ack idempotent —
//    those drops are counted here (dup_payloads_dropped), separately from the
//    ledger's own duplicates_dropped audit counter, which must stay zero.
//  - beat sink: each node's monitor heartbeat travels as a kHeartbeat message;
//    the driver handler beats membership. Over the
//    inproc backend this collapses to a synchronous Beat() — byte-for-byte
//    the pre-net behavior.
//  - node-lost hook: OnNodeLost closes the dead node's endpoint so queued
//    traffic drains as peer-gone instead of blocking senders.
#ifndef ITASK_NET_SHUFFLE_FABRIC_H_
#define ITASK_NET_SHUFFLE_FABRIC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "itask/recovery.h"
#include "net/transport.h"

namespace itask::net {

struct FabricStats {
  std::uint64_t deliveries_sent = 0;
  std::uint64_t acks_ok = 0;
  std::uint64_t acks_backpressure = 0;
  std::uint64_t acks_refused = 0;
  std::uint64_t ack_timeouts = 0;
  std::uint64_t dup_payloads_dropped = 0;  // Receiver-side transport dedup.
  std::uint64_t heartbeats_sent = 0;
  TransportStats transport;
};

class ShuffleFabric {
 public:
  // Builds the transport, registers all endpoints and wires |recovery|'s
  // delivery channel / beat sink / node-lost hook. |recovery| must outlive
  // the fabric; the destructor detaches the hooks again.
  ShuffleFabric(const NetConfig& config, core::RecoveryContext* recovery, int num_nodes);
  ~ShuffleFabric();

  ShuffleFabric(const ShuffleFabric&) = delete;
  ShuffleFabric& operator=(const ShuffleFabric&) = delete;

  // Closes |node|'s endpoint (kill fault / death declaration). Idempotent.
  void CloseNode(int node);

  Transport& transport() { return *transport_; }
  FabricStats stats() const;

 private:
  using AckKey = std::tuple<int, std::int64_t, std::uint32_t, std::uint64_t>;

  core::DeliveryStatus Deliver(int target, const core::ShuffleWireId& id,
                               const common::ByteBuffer& bytes);
  void HandleDriverMessage(Message&& msg);
  void HandleNodeMessage(int node, Message&& msg);

  // Emits one end of a traced hop on the recovery context's tracer. Sends
  // from the fabric's driver endpoint use lane num_nodes_ (a synthetic
  // "fabric" lane past the real nodes); receipts use the receiving node.
  // No-op while the job is unstamped (trace id 0) or untraced.
  void EmitFlow(obs::EventKind kind, std::uint16_t lane, const Message& msg, int peer);

  const NetConfig config_;
  core::RecoveryContext* recovery_;
  const int num_nodes_;
  std::unique_ptr<Transport> transport_;

  // Ack correlation: Deliver() waits here for the receiver's verdict.
  std::mutex ack_mu_;
  std::condition_variable ack_cv_;
  std::map<AckKey, AckStatus> ack_results_;

  // Receiver-side dedup, one set per node endpoint: an entry redelivered
  // after an owner death goes to a *different* node, so per-node keying
  // never drops a legitimate redelivery.
  std::vector<std::set<std::tuple<std::int64_t, std::uint32_t, std::uint64_t>>> seen_;
  std::vector<std::unique_ptr<std::mutex>> seen_mu_;

  std::atomic<std::uint64_t> deliveries_sent_{0};
  std::atomic<std::uint64_t> acks_ok_{0};
  std::atomic<std::uint64_t> acks_backpressure_{0};
  std::atomic<std::uint64_t> acks_refused_{0};
  std::atomic<std::uint64_t> ack_timeouts_{0};
  std::atomic<std::uint64_t> dup_payloads_dropped_{0};
  std::atomic<std::uint64_t> heartbeats_sent_{0};
};

}  // namespace itask::net

#endif  // ITASK_NET_SHUFFLE_FABRIC_H_
