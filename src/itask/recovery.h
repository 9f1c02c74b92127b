// Lineage-based node-failure recovery for the ITask cluster.
//
// The paper runs on Hadoop/Hyracks, which already re-execute tasks when a
// node dies; this layer supplies the equivalent for the in-process cluster.
// Three cooperating stores, all living in plain driver memory (outside every
// node's failure domain — the stand-in for a DFS):
//
//  - DurableStore: every input split fed into the job is serialized and
//    retained, keyed by a split id, together with its re-execution *epoch*.
//    A split whose owning node dies before committing is re-executed on a
//    survivor from these bytes under a bumped epoch.
//  - ShuffleLedger: map-side shuffle outputs are staged here (serialized,
//    payload dropped from the producer's heap) instead of being pushed
//    directly to the consumer. When the producing split *commits* (its scale
//    loop completed), the staged entries are delivered to the effective owner
//    of their key range. Committed entries are retained until the destination
//    tag is sunk, so an owner's death re-delivers from the ledger without
//    re-executing committed work. Each entry carries a (split, epoch, seq)
//    id; the delivery path drops duplicates and counts them — the audit
//    counter chaos sweeps assert stays zero.
//  - SinkGate: reducer sink output is staged per (node, tag) and only handed
//    to the real sink when the merge activation for that tag completes
//    without re-parking. A node dying mid-merge discards its staged chunks;
//    the tag's ledger entries re-deliver to the new owner and the merge
//    re-runs there.
//
// Correctness gates read lock-free by the runtimes:
//  - MergeSafe(): merges may dispatch only when every split is committed and
//    no committed entry awaits (re)delivery — otherwise a survivor could sink
//    a tag early and late re-executed data would be dropped.
//  - AllComplete(): the coordinator treats the job as done only when, in
//    addition, every tag that ever received entries has been sunk.
#ifndef ITASK_ITASK_RECOVERY_H_
#define ITASK_ITASK_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/byte_buffer.h"
#include "itask/membership.h"
#include "itask/partition.h"
#include "itask/types.h"
#include "memsim/managed_heap.h"
#include "obs/tracer.h"
#include "serde/spill_manager.h"

namespace itask::core {

struct RecoveryConfig {
  double heartbeat_ms = 2.0;         // ITASK_HEARTBEAT_MS
  double suspect_timeout_ms = 150.0;  // ITASK_SUSPECT_TIMEOUT_MS
  double dead_timeout_ms = 300.0;     // 2x the suspect timeout by default.
  // Extra silence granted to a node the transport reported as partitioned
  // (kDisconnected) before the dead declaration. ITASK_DISCONNECT_GRACE_MS;
  // 3x the dead timeout by default — a healed partition must not have cost
  // any lineage re-execution.
  double disconnect_grace_ms = 900.0;
  int shuffle_retries = 5;            // ITASK_SHUFFLE_RETRIES
  double backoff_base_ms = 1.0;       // Exponential, doubling per attempt...
  double backoff_cap_ms = 50.0;       // ...capped here, +/- jitter.

  // Reads the ITASK_* knobs above from the environment.
  static RecoveryConfig FromEnv();
};

// Builds an empty partition of one TypeId on a given node's heap/spill so the
// recovery layer can rehydrate ledger bytes anywhere. Registered per type by
// the application.
using PartitionFactory =
    std::function<PartitionPtr(memsim::ManagedHeap*, serde::SpillManager*)>;

// Per-node plumbing the recovery layer needs: where to materialize payloads
// and how to hand partitions to the node's queue / the app's real sink.
struct RecoveryNodeHooks {
  memsim::ManagedHeap* heap = nullptr;
  serde::SpillManager* spill = nullptr;
  std::function<void(PartitionPtr)> push;
  std::function<void(PartitionPtr)> sink;
};

// ---- Net-transport integration (src/net) ----
// The ledger's delivery path can be routed over a message transport instead
// of materializing directly on the target heap. The channel receives the
// entry's exactly-once identity plus its serialized bytes and reports how the
// far end took it; the ledger keeps ownership of retry/backoff/redelivery.
enum class DeliveryStatus : std::uint8_t {
  kDelivered = 0,  // Landed on the target (or the target deduped it).
  kBackoff,        // Target under memory pressure / ack timed out: retry.
  kPeerGone,       // Target endpoint closed (crashed node). Treated like the
                   // in-memory push into a fenced runtime: the bytes are
                   // gone, and OnNodeLost re-marks them for redelivery once
                   // the detector declares the node dead.
};

struct ShuffleWireId {
  std::int64_t split = -1;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  TypeId type = 0;
  Tag tag = kNoTag;
};

using DeliveryChannel =
    std::function<DeliveryStatus(int target, const ShuffleWireId&, const common::ByteBuffer&)>;

struct RecoveryStats {
  std::uint64_t splits_registered = 0;
  std::uint64_t splits_reexecuted = 0;
  std::uint64_t entries_staged = 0;
  std::uint64_t redeliveries = 0;     // Entries re-sent after an owner death.
  std::uint64_t shuffle_retries = 0;  // Delivery attempts beyond the first.
  std::uint64_t duplicates_dropped = 0;  // Must be 0: the dedup audit counter.
  std::uint64_t fenced_rejects = 0;   // Stages refused (dead/stale producer).
  std::uint64_t stale_commits = 0;    // Commits refused (dead producer/epoch).
  std::uint64_t sunk_tag_drops = 0;   // Deliveries refused (tag already sunk).
};

class RecoveryContext {
 public:
  RecoveryContext(RecoveryConfig config, int num_nodes);

  Membership& membership() { return membership_; }
  const RecoveryConfig& config() const { return config_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // Causal trace identity for this job (obs::TraceIdFromSeed(seed) by
  // convention). The shuffle fabric stamps every delivery/ack it sends with
  // span ids derived from this, so two runs with the same seed produce the
  // same ids. 0 (the default) leaves messages unstamped.
  void set_trace_id(std::uint64_t trace_id) { trace_id_ = trace_id; }
  std::uint64_t trace_id() const { return trace_id_; }

  // ---- Wiring (before the job runs) ----
  void RegisterFactory(TypeId type, PartitionFactory factory);
  void SetNodeHooks(int node, RecoveryNodeHooks hooks);
  void SetNodeSink(int node, std::function<void(PartitionPtr)> sink);

  // ---- Net-transport wiring (optional; before the job runs) ----
  // Routes committed-entry delivery through |channel| instead of the direct
  // Materialize+push path. Pass nullptr to detach (the fabric does on
  // teardown).
  void SetDeliveryChannel(DeliveryChannel channel);

  // Routes heartbeats through |sink| (the fabric sends them as transport
  // messages) instead of beating membership directly.
  void SetBeatSink(std::function<void(int)> sink);

  // Called with the node id whenever OnNodeLost fences a node, so the fabric
  // can close its endpoint and drop queued traffic.
  void SetNodeLostHook(std::function<void(int)> hook);

  // One heartbeat from |node|'s monitor thread. Without a beat sink this
  // beats membership directly; with one, the beat rides the transport and
  // lands in NoteRemoteHeartbeat on the driver side instead.
  void Heartbeat(int node);

  // Driver-side receipt of a transport-carried heartbeat.
  void NoteRemoteHeartbeat(int node);

  // The transport's fault engine (or the ctrl plane) observed a partition
  // cutting |node| off. Moves it from kAlive/kSuspect into kDisconnected so
  // the failure detector applies the disconnect grace window instead of the
  // dead timeout. A node already draining or dead is left alone. The reverse
  // edge needs no call: the node's own resumed heartbeats flip it back to
  // kAlive in the coordinator's detector.
  void NoteLinkDown(int node);

  // Receive side of a transport delivery: rehydrates |bytes| as a partition
  // of |id.type| on |node|'s heap and pushes it into the node's queue.
  // kBackoff on OME, kPeerGone when |node| is no longer serving. Runs on
  // transport threads and deliberately takes no lock: factories and hooks are
  // frozen before the job starts, and a DeliverLocked holding mu_ may be
  // blocked waiting for exactly this call's ack.
  DeliveryStatus RemotePush(int node, const ShuffleWireId& id, common::ByteBuffer& bytes);

  // ---- DurableStore ----
  // Serializes |split| into the durable store, stamps its lineage origin
  // (split id, epoch 0) and returns the id. Driver-side, during feeding.
  std::int64_t RegisterSplit(DataPartition& split, int assigned_node);

  // ---- ShuffleLedger ----
  // Stages a map-side output: serialize, record under the producer split's
  // current epoch with the next seq, drop the payload. Returns false (and
  // counts a fenced reject) when the producer is no longer serving or the
  // output's epoch is stale — the data is already covered by a re-execution.
  bool StageShuffle(int producer, int home, PartitionPtr out);

  // Commits one (split, epoch): marks the split done and delivers its staged
  // entries to the effective owner of each entry's home range. Rejected (a
  // stale commit) when the producer was declared dead or the epoch moved on.
  void CommitEpoch(int producer, std::int64_t split, std::uint32_t epoch);

  // ---- SinkGate ----
  // Stages one sink chunk from |node| under the chunk's tag.
  bool StageSinkChunk(int node, PartitionPtr chunk);

  // The merge activation for |tag| completed on |node| without re-parking:
  // replays the tag's staged chunks into the node's real sink and drops the
  // tag's ledger entries. Late re-deliveries to the tag are then refused.
  void CommitSink(int node, Tag tag);

  // ---- Gates ----
  bool MergeSafe() const {
    return !recovering_.load(std::memory_order_acquire) &&
           uncommitted_splits_.load(std::memory_order_acquire) == 0 &&
           undelivered_committed_.load(std::memory_order_acquire) == 0;
  }
  bool AllComplete();

  // Splits |node| has committed so far (lock-free; fault injection keys
  // kills to this progress point).
  std::uint64_t commits(int node) const {
    return node_commits_[static_cast<std::size_t>(node)].load(std::memory_order_relaxed);
  }

  // ---- Coordinator-side repair ----
  // |node| was fenced (dead or draining): bump epochs of its uncommitted
  // splits and discard their staged entries, mark entries delivered to it for
  // re-delivery, discard its staged sink chunks, then Sweep().
  void OnNodeLost(int node);

  // Re-queues pending (re-execution) splits and retries pending deliveries.
  // Cheap no-op when nothing is pending; called from the coordinator's poll
  // loop so a delivery that failed transiently (target under pressure or
  // later demoted) is eventually re-driven.
  void Sweep();

  RecoveryStats stats() const;

 private:
  struct Split {
    TypeId type = 0;
    Tag tag = kNoTag;
    common::ByteBuffer bytes;  // Serialized input (cleared once committed).
    std::uint32_t epoch = 0;
    int assigned_node = 0;
    enum class State { kQueued, kPending, kCommitted };
    State state = State::kQueued;
  };

  struct Entry {
    std::int64_t split = -1;
    std::uint32_t epoch = 0;
    std::uint64_t seq = 0;
    TypeId type = 0;
    Tag tag = kNoTag;
    int home = 0;
    common::ByteBuffer bytes;
    bool committed = false;
    bool delivered = false;
    bool redelivery = false;  // Was un-delivered by an owner death.
    int delivered_to = -1;
  };

  struct SinkChunk {
    TypeId type = 0;
    Tag tag = kNoTag;
    int node = 0;  // Staging node; discarded if it dies before the commit.
    common::ByteBuffer bytes;
  };

  // Delivers one committed entry to the effective owner of its home range,
  // with capped-exponential-backoff retries against transient OMEs and a
  // circuit breaker on the target's membership state. Returns false when the
  // entry must stay pending (Sweep retries later). mu_ held.
  bool DeliverLocked(Entry& entry);

  // Materializes |bytes| as a fresh partition of |type| on |node|'s heap.
  // Throws memsim::OutOfMemoryError if the single attempt fails.
  PartitionPtr Materialize(TypeId type, int node, common::ByteBuffer& bytes);

  void BackoffSleep(int attempt, std::uint64_t salt);

  RecoveryConfig config_;
  Membership membership_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t trace_id_ = 0;

  // Net-transport hooks. Written during wiring (single-threaded), read by the
  // delivery path and monitor threads afterwards.
  DeliveryChannel delivery_channel_;
  std::function<void(int)> beat_sink_;
  std::function<void(int)> node_lost_hook_;

  mutable std::mutex mu_;
  std::vector<RecoveryNodeHooks> hooks_;
  std::map<TypeId, PartitionFactory> factories_;
  std::deque<Split> splits_;
  std::deque<Entry> entries_;
  std::map<std::pair<std::int64_t, std::uint32_t>, std::uint64_t> next_seq_;
  std::map<Tag, std::vector<SinkChunk>> sink_chunks_;
  std::set<Tag> sunk_tags_;

  // Sink rehydration heap: effectively unbounded and pause-free, modelling
  // the DFS write buffer the paper's outputToHDFS streams into. Keeps the
  // sink-commit path independent of any (possibly dying) node's heap.
  std::unique_ptr<memsim::ManagedHeap> sink_heap_;

  // Gate counters (lock-free readers; writers hold mu_).
  std::atomic<std::uint64_t> uncommitted_splits_{0};
  std::atomic<std::uint64_t> undelivered_committed_{0};
  std::atomic<bool> recovering_{false};
  std::atomic<bool> sweep_needed_{false};

  // Stats (relaxed atomics; snapshot via stats()).
  std::atomic<std::uint64_t> splits_registered_{0};
  std::atomic<std::uint64_t> splits_reexecuted_{0};
  std::atomic<std::uint64_t> entries_staged_{0};
  std::atomic<std::uint64_t> redeliveries_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> duplicates_dropped_{0};
  std::atomic<std::uint64_t> fenced_rejects_{0};
  std::atomic<std::uint64_t> stale_commits_{0};
  std::atomic<std::uint64_t> sunk_tag_drops_{0};
  std::vector<std::atomic<std::uint64_t>> node_commits_;
};

}  // namespace itask::core

#endif  // ITASK_ITASK_RECOVERY_H_
