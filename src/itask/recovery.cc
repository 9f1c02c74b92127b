#include "itask/recovery.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "common/backoff.h"
#include "common/env.h"
#include "common/logging.h"
#include "obs/event.h"
#include "serde/serializer.h"

namespace itask::core {

namespace {

// splitmix64: deterministic jitter for the delivery backoff without touching
// any global RNG (chaos sweeps re-run fixed seeds and must stay reproducible).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

RecoveryConfig RecoveryConfig::FromEnv() {
  RecoveryConfig c;
  c.heartbeat_ms = common::EnvPositiveDouble("ITASK_HEARTBEAT_MS", c.heartbeat_ms);
  c.suspect_timeout_ms =
      common::EnvPositiveDouble("ITASK_SUSPECT_TIMEOUT_MS", c.suspect_timeout_ms);
  c.dead_timeout_ms = 2.0 * c.suspect_timeout_ms;
  c.disconnect_grace_ms = common::EnvPositiveDouble("ITASK_DISCONNECT_GRACE_MS",
                                                    3.0 * c.dead_timeout_ms);
  c.shuffle_retries = std::max(0, common::EnvInt("ITASK_SHUFFLE_RETRIES", c.shuffle_retries));
  return c;
}

RecoveryContext::RecoveryContext(RecoveryConfig config, int num_nodes)
    : config_(config),
      membership_(num_nodes),
      hooks_(static_cast<std::size_t>(num_nodes)),
      node_commits_(static_cast<std::size_t>(num_nodes)) {
  memsim::HeapConfig sink_heap_config;
  sink_heap_config.capacity_bytes = 1ULL << 40;  // Effectively unbounded.
  sink_heap_config.gc_base_ns = 0;
  sink_heap_config.gc_ns_per_byte = 0.0;
  sink_heap_config.real_pauses = false;
  sink_heap_ = std::make_unique<memsim::ManagedHeap>(sink_heap_config);
}

void RecoveryContext::RegisterFactory(TypeId type, PartitionFactory factory) {
  std::lock_guard lock(mu_);
  factories_[type] = std::move(factory);
}

void RecoveryContext::SetNodeHooks(int node, RecoveryNodeHooks hooks) {
  std::lock_guard lock(mu_);
  hooks_[static_cast<std::size_t>(node)] = std::move(hooks);
}

void RecoveryContext::SetNodeSink(int node, std::function<void(PartitionPtr)> sink) {
  std::lock_guard lock(mu_);
  hooks_[static_cast<std::size_t>(node)].sink = std::move(sink);
}

void RecoveryContext::SetDeliveryChannel(DeliveryChannel channel) {
  std::lock_guard lock(mu_);
  delivery_channel_ = std::move(channel);
}

void RecoveryContext::SetBeatSink(std::function<void(int)> sink) {
  std::lock_guard lock(mu_);
  beat_sink_ = std::move(sink);
}

void RecoveryContext::SetNodeLostHook(std::function<void(int)> hook) {
  std::lock_guard lock(mu_);
  node_lost_hook_ = std::move(hook);
}

void RecoveryContext::Heartbeat(int node) {
  // The sink is installed before runtimes start and detached after they stop;
  // no monitor thread can race the assignment.
  if (beat_sink_) {
    beat_sink_(node);
  } else {
    membership_.Beat(node);
  }
}

void RecoveryContext::NoteRemoteHeartbeat(int node) { membership_.Beat(node); }

void RecoveryContext::NoteLinkDown(int node) {
  if (node < 0 || node >= membership_.size()) {
    return;
  }
  const NodeLiveness s = membership_.state(node);
  if (s == NodeLiveness::kAlive || s == NodeLiveness::kSuspect) {
    membership_.NoteDisconnected(node);
    LOG_INFO() << "recovery: node " << node
               << " disconnected (partition observed); grace "
               << config_.disconnect_grace_ms << "ms";
  }
}

DeliveryStatus RecoveryContext::RemotePush(int node, const ShuffleWireId& id,
                                           common::ByteBuffer& bytes) {
  // Lock-free on purpose: a DeliverLocked holding mu_ is blocked waiting for
  // the ack this call produces. Factories and hooks are frozen pre-run.
  if (!membership_.Serving(node)) {
    return DeliveryStatus::kPeerGone;
  }
  auto fit = factories_.find(id.type);
  if (fit == factories_.end()) {
    LOG_ERROR() << "recovery: no partition factory for remote-push type "
                << static_cast<unsigned>(id.type);
    return DeliveryStatus::kBackoff;
  }
  RecoveryNodeHooks& h = hooks_[static_cast<std::size_t>(node)];
  try {
    PartitionPtr dp = fit->second(h.heap, h.spill);
    dp->set_tag(id.tag);
    dp->set_origin(id.split, id.epoch);
    bytes.ResetCursor();
    serde::Reader reader(&bytes);
    dp->DeserializeFrom(reader);
    h.push(std::move(dp));
    return DeliveryStatus::kDelivered;
  } catch (const memsim::OutOfMemoryError&) {
    return DeliveryStatus::kBackoff;
  }
}

std::int64_t RecoveryContext::RegisterSplit(DataPartition& split, int assigned_node) {
  std::lock_guard lock(mu_);
  const auto id = static_cast<std::int64_t>(splits_.size());
  Split s;
  s.type = split.type();
  s.tag = split.tag();
  s.assigned_node = assigned_node;
  serde::Writer writer(&s.bytes);
  split.SerializeTo(writer);
  splits_.push_back(std::move(s));
  uncommitted_splits_.fetch_add(1, std::memory_order_release);
  splits_registered_.fetch_add(1, std::memory_order_relaxed);
  split.set_origin(id, /*epoch=*/0);
  return id;
}

bool RecoveryContext::StageShuffle(int producer, int home, PartitionPtr out) {
  std::lock_guard lock(mu_);
  const std::int64_t split = out->origin_split();
  const std::uint32_t epoch = out->origin_epoch();
  const bool known =
      split >= 0 && split < static_cast<std::int64_t>(splits_.size());
  if (!membership_.Serving(producer) || !known ||
      splits_[static_cast<std::size_t>(split)].epoch != epoch ||
      splits_[static_cast<std::size_t>(split)].state == Split::State::kCommitted) {
    // Zombie or superseded producer: this output's split is already covered
    // by a re-execution (or the producer was declared dead). Fencing here is
    // what makes re-execution exactly-once instead of at-least-once.
    fenced_rejects_.fetch_add(1, std::memory_order_relaxed);
    out->DropPayload();
    return false;
  }
  Entry e;
  e.split = split;
  e.epoch = epoch;
  e.seq = next_seq_[{split, epoch}]++;
  e.type = out->type();
  e.tag = out->tag();
  e.home = home;
  serde::Writer writer(&e.bytes);
  out->SerializeTo(writer);
  out->DropPayload();
  entries_.push_back(std::move(e));
  entries_staged_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RecoveryContext::CommitEpoch(int producer, std::int64_t split, std::uint32_t epoch) {
  std::lock_guard lock(mu_);
  if (split < 0 || split >= static_cast<std::int64_t>(splits_.size())) {
    return;
  }
  Split& s = splits_[static_cast<std::size_t>(split)];
  if (!membership_.Serving(producer) || s.epoch != epoch ||
      s.state == Split::State::kCommitted) {
    // The detector declared the producer dead (or bumped the epoch) before
    // this commit raced in: the split will re-execute, so its staged entries
    // were already discarded and this completion must not count.
    stale_commits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.state = Split::State::kCommitted;
  s.bytes.Clear();  // Input bytes are no longer needed once outputs committed.
  uncommitted_splits_.fetch_sub(1, std::memory_order_release);
  node_commits_[static_cast<std::size_t>(producer)].fetch_add(1, std::memory_order_relaxed);
  for (Entry& e : entries_) {
    if (e.split != split || e.epoch != epoch || e.committed) {
      continue;
    }
    e.committed = true;
    undelivered_committed_.fetch_add(1, std::memory_order_release);
    if (!DeliverLocked(e)) {
      sweep_needed_.store(true, std::memory_order_release);
    }
  }
}

bool RecoveryContext::StageSinkChunk(int node, PartitionPtr chunk) {
  std::lock_guard lock(mu_);
  if (!membership_.Serving(node) || sunk_tags_.count(chunk->tag()) != 0) {
    fenced_rejects_.fetch_add(1, std::memory_order_relaxed);
    chunk->DropPayload();
    return false;
  }
  SinkChunk c;
  c.type = chunk->type();
  c.tag = chunk->tag();
  c.node = node;
  serde::Writer writer(&c.bytes);
  chunk->SerializeTo(writer);
  chunk->DropPayload();
  sink_chunks_[c.tag].push_back(std::move(c));
  return true;
}

void RecoveryContext::CommitSink(int node, Tag tag) {
  std::vector<SinkChunk> chunks;
  std::function<void(PartitionPtr)> inner;
  {
    std::lock_guard lock(mu_);
    if (!membership_.Serving(node) || sunk_tags_.count(tag) != 0) {
      stale_commits_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    sunk_tags_.insert(tag);
    auto it = sink_chunks_.find(tag);
    if (it != sink_chunks_.end()) {
      chunks = std::move(it->second);
      sink_chunks_.erase(it);
    }
    // The tag is consumed: its ledger entries (all delivered, or the merge
    // could not have dispatched under MergeSafe) will never re-deliver.
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [tag](const Entry& e) { return e.tag == tag; }),
                   entries_.end());
    inner = hooks_[static_cast<std::size_t>(node)].sink;
  }
  if (!inner) {
    return;
  }
  // Replay in staging order on the driver-side sink heap (the DFS stand-in):
  // unbounded and pause-free, so a commit can never OME — in particular not
  // against the heap of a node that is itself being poisoned or drained.
  for (SinkChunk& c : chunks) {
    PartitionFactory factory;
    {
      std::lock_guard lock(mu_);
      auto fit = factories_.find(c.type);
      if (fit == factories_.end()) {
        LOG_ERROR() << "recovery: no partition factory for type "
                    << static_cast<unsigned>(c.type) << " at sink commit";
        continue;
      }
      factory = fit->second;
    }
    PartitionPtr dp = factory(sink_heap_.get(), nullptr);
    dp->set_tag(c.tag);
    c.bytes.ResetCursor();
    serde::Reader reader(&c.bytes);
    dp->DeserializeFrom(reader);
    inner(std::move(dp));
  }
}

bool RecoveryContext::AllComplete() {
  if (recovering_.load(std::memory_order_acquire) ||
      uncommitted_splits_.load(std::memory_order_acquire) != 0 ||
      undelivered_committed_.load(std::memory_order_acquire) != 0) {
    return false;
  }
  std::lock_guard lock(mu_);
  // Every remaining entry belongs to a tag whose merge has not sunk yet.
  return entries_.empty();
}

void RecoveryContext::OnNodeLost(int node) {
  recovering_.store(true, std::memory_order_release);
  if (node_lost_hook_) {
    // Let the transport fabric close the node's endpoint first: anything
    // still queued for it is undeliverable and must not block senders.
    node_lost_hook_(node);
  }
  {
    std::lock_guard lock(mu_);
    // 1) Uncommitted splits assigned to the lost node: discard their staged
    //    entries, bump the epoch (fencing any zombie stage/commit) and mark
    //    them pending re-execution on a survivor.
    for (std::size_t i = 0; i < splits_.size(); ++i) {
      Split& s = splits_[i];
      if (s.assigned_node != node || s.state == Split::State::kCommitted) {
        continue;
      }
      const auto id = static_cast<std::int64_t>(i);
      const std::uint32_t old_epoch = s.epoch;
      entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                    [id, old_epoch](const Entry& e) {
                                      return e.split == id && e.epoch == old_epoch;
                                    }),
                     entries_.end());
      ++s.epoch;
      s.state = Split::State::kPending;
    }
    // 2) Committed entries that had been delivered to the lost node and whose
    //    tag is not yet sunk: the data died with the node's queue — mark for
    //    re-delivery from the ledger (no producer re-execution needed).
    for (Entry& e : entries_) {
      if (e.committed && e.delivered && e.delivered_to == node) {
        e.delivered = false;
        e.delivered_to = -1;
        e.redelivery = true;
        undelivered_committed_.fetch_add(1, std::memory_order_release);
      }
    }
    // 3) Sink chunks the lost node staged for unsunk tags are partial merge
    //    output; the merge re-runs elsewhere and re-stages them.
    for (auto& [tag, chunks] : sink_chunks_) {
      chunks.erase(std::remove_if(chunks.begin(), chunks.end(),
                                  [node](const SinkChunk& c) { return c.node == node; }),
                   chunks.end());
    }
    sweep_needed_.store(true, std::memory_order_release);
  }
  Sweep();
  recovering_.store(false, std::memory_order_release);
}

void RecoveryContext::Sweep() {
  if (!sweep_needed_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  std::lock_guard lock(mu_);
  bool leftover = false;
  // Re-queue pending splits on the effective owner of their old assignment.
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    Split& s = splits_[i];
    if (s.state != Split::State::kPending) {
      continue;
    }
    const int target = membership_.EffectiveOwner(s.assigned_node);
    if (!membership_.Serving(target)) {
      leftover = true;  // No survivors; the coordinator aborts the job.
      continue;
    }
    auto fit = factories_.find(s.type);
    if (fit == factories_.end()) {
      LOG_ERROR() << "recovery: no partition factory for split type "
                  << static_cast<unsigned>(s.type);
      continue;
    }
    bool queued = false;
    for (int attempt = 0; attempt <= config_.shuffle_retries && !queued; ++attempt) {
      if (!membership_.Serving(target)) {
        break;
      }
      if (attempt > 0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        BackoffSleep(attempt, static_cast<std::uint64_t>(i) * 31 + 7);
      }
      try {
        PartitionPtr dp = Materialize(s.type, target, s.bytes);
        dp->set_tag(s.tag);
        dp->set_origin(static_cast<std::int64_t>(i), s.epoch);
        hooks_[static_cast<std::size_t>(target)].push(dp);
        queued = true;
      } catch (const memsim::OutOfMemoryError&) {
        // Target under pressure; back off and retry, then leave pending.
      }
    }
    if (!queued) {
      leftover = true;
      continue;
    }
    s.assigned_node = target;
    s.state = Split::State::kQueued;
    splits_reexecuted_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Emit(obs::EventKind::kLineageReexec, static_cast<std::uint16_t>(target),
                    static_cast<std::uint64_t>(i), s.epoch);
    }
  }
  // Retry committed-but-undelivered entries.
  for (Entry& e : entries_) {
    if (e.committed && !e.delivered && !DeliverLocked(e)) {
      leftover = true;
    }
  }
  if (leftover) {
    sweep_needed_.store(true, std::memory_order_release);
  }
}

bool RecoveryContext::DeliverLocked(Entry& entry) {
  if (entry.delivered) {
    // (split, epoch, seq) already landed on a serving owner: a re-delivered
    // duplicate. The chaos sweeps assert this counter stays zero.
    if (membership_.Serving(entry.delivered_to)) {
      duplicates_dropped_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return true;
  }
  if (sunk_tags_.count(entry.tag) != 0) {
    // The tag's merge already committed; late data here would be a
    // correctness bug upstream — count it rather than corrupt the sink.
    sunk_tag_drops_.fetch_add(1, std::memory_order_relaxed);
    entry.delivered = true;
    entry.delivered_to = -1;
    undelivered_committed_.fetch_sub(1, std::memory_order_release);
    return true;
  }
  auto fit = factories_.find(entry.type);
  if (fit == factories_.end()) {
    LOG_ERROR() << "recovery: no partition factory for shuffle type "
                << static_cast<unsigned>(entry.type);
    return false;
  }
  for (int attempt = 0; attempt <= config_.shuffle_retries; ++attempt) {
    const int target = membership_.EffectiveOwner(entry.home);
    if (!membership_.Serving(target)) {
      return false;  // Circuit breaker: nobody serves this range right now.
    }
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      if (tracer_ != nullptr) {
        tracer_->Emit(obs::EventKind::kShuffleRetry, static_cast<std::uint16_t>(target),
                      static_cast<std::uint64_t>(attempt),
                      static_cast<std::uint64_t>(entry.seq));
      }
      BackoffSleep(attempt, Mix64(static_cast<std::uint64_t>(entry.split) << 20 |
                                  entry.seq));
    }
    bool landed = false;
    if (delivery_channel_) {
      // Transport path: ship the serialized bytes; the receive side
      // materializes (RemotePush) and acks. kBackoff (OME over there, or a
      // lost ack) retries exactly like a local OME; kPeerGone mirrors the
      // in-memory push into a fenced runtime — the bytes are gone with the
      // target and OnNodeLost will re-mark them once it is declared dead.
      const ShuffleWireId id{entry.split, entry.epoch, entry.seq, entry.type, entry.tag};
      const DeliveryStatus st = delivery_channel_(target, id, entry.bytes);
      if (st == DeliveryStatus::kBackoff) {
        continue;
      }
      landed = true;
    } else {
      try {
        PartitionPtr dp = Materialize(entry.type, target, entry.bytes);
        dp->set_tag(entry.tag);
        dp->set_origin(entry.split, entry.epoch);
        hooks_[static_cast<std::size_t>(target)].push(dp);
        landed = true;
      } catch (const memsim::OutOfMemoryError&) {
        // Target heap full right now; back off (capped exponential + jitter)
        // and re-check membership — the target may get demoted meanwhile.
        // A poisoned heap refuses every allocation and never frees up, and
        // only an OME escaping one of its own tasks would demote the node —
        // which never comes when it has no task to run. Demote it here so
        // the next attempt goes to the successor. Only this in-memory path
        // sees the target's heap; a TCP delivery gets kBackoff above.
        if (hooks_[static_cast<std::size_t>(target)].heap->poisoned() &&
            membership_.TryDemoteToDraining(target) && tracer_ != nullptr) {
          tracer_->Emit(obs::EventKind::kNodeDraining, static_cast<std::uint16_t>(target));
        }
      }
    }
    if (landed) {
      entry.delivered = true;
      entry.delivered_to = target;
      undelivered_committed_.fetch_sub(1, std::memory_order_release);
      if (entry.redelivery) {
        redeliveries_.fetch_add(1, std::memory_order_relaxed);
        if (tracer_ != nullptr) {
          tracer_->Emit(obs::EventKind::kShuffleRedeliver,
                        static_cast<std::uint16_t>(target),
                        static_cast<std::uint64_t>(entry.split), entry.seq);
        }
      }
      return true;
    }
  }
  return false;
}

PartitionPtr RecoveryContext::Materialize(TypeId type, int node,
                                          common::ByteBuffer& bytes) {
  RecoveryNodeHooks& h = hooks_[static_cast<std::size_t>(node)];
  PartitionPtr dp = factories_.at(type)(h.heap, h.spill);
  bytes.ResetCursor();
  serde::Reader reader(&bytes);
  dp->DeserializeFrom(reader);  // May throw OutOfMemoryError; dp's dtor frees.
  return dp;
}

void RecoveryContext::BackoffSleep(int attempt, std::uint64_t salt) {
  // Shared backoff shape (common/backoff.h): capped exponential with +/- 25%
  // deterministic jitter so retry storms against one target decorrelate.
  common::BackoffPolicy policy;
  policy.base_ms = config_.backoff_base_ms;
  policy.cap_ms = config_.backoff_cap_ms;
  const double ms = common::BackoffDelayMs(policy, attempt, salt);
  common::BackoffRegistry::Instance().NoteRetry(common::BackoffUse::kLedgerDeliver);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

RecoveryStats RecoveryContext::stats() const {
  RecoveryStats s;
  s.splits_registered = splits_registered_.load(std::memory_order_relaxed);
  s.splits_reexecuted = splits_reexecuted_.load(std::memory_order_relaxed);
  s.entries_staged = entries_staged_.load(std::memory_order_relaxed);
  s.redeliveries = redeliveries_.load(std::memory_order_relaxed);
  s.shuffle_retries = retries_.load(std::memory_order_relaxed);
  s.duplicates_dropped = duplicates_dropped_.load(std::memory_order_relaxed);
  s.fenced_rejects = fenced_rejects_.load(std::memory_order_relaxed);
  s.stale_commits = stale_commits_.load(std::memory_order_relaxed);
  s.sunk_tag_drops = sunk_tag_drops_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace itask::core
