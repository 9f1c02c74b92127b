// Event taxonomy for the IRS observability subsystem.
//
// Every runtime-visible incident — a collection, a monitor signal, an
// interrupt, a partition lifecycle transition, a spill — is one fixed-size
// POD Event stamped with nanoseconds since the owning tracer's epoch. The
// payload fields (a, b, aux, flags) are kind-specific; the table next to each
// enumerator documents the encoding so exporters and tests agree on it.
#ifndef ITASK_OBS_EVENT_H_
#define ITASK_OBS_EVENT_H_

#include <cstdint>

namespace itask::obs {

enum class EventKind : std::uint8_t {
  kRuntimeStart = 0,     // (per-node IRS started)
  kRuntimeStop,          // a=wall_ns since start
  kGc,                   // a=reclaimed_bytes b=live_after aux=pause_us flags&kFlagLugc
  kPressureOn,           // (monitor entered the pressure state)
  kPressureOff,          // (free memory recovered past N%)
  kSignalReduce,         // a=bytes still needed for the safe zone
  kSignalGrow,           // aux=1 when forced (livelock guard)
  kSignalSerialize,      // a=bytes_goal b=bytes_freed (one SpillStep pass)
  kVictimSelect,         // aux=spec_id flags=InterruptRule
  kTaskInterrupt,        // aux=spec_id a=latency_ns (request->interrupt) flags=InterruptRule
  kTaskReactivate,       // aux=spec_id (dispatch of a re-queued partition)
  kOmeInterrupt,         // aux=type_id a=tuples_processed before the failure
  kPartitionCreated,     // aux=type_id a=payload_bytes (fed into the job)
  kPartitionParked,      // aux=type_id a=payload_bytes (intermediate parked for merge)
  kPartitionSerialized,  // aux=type_id a=bytes freed from the heap
  kPartitionLoaded,      // aux=type_id a=bytes re-charged onto the heap
  kPartitionMerged,      // aux=type_id a=group_size b=resident_bytes (MITask pop)
  kSpillWrite,           // a=bytes written to disk
  kSpillRead,            // a=bytes read back from disk
  kActiveSample,         // aux=sample_seq a=total active workers (Fig 11c)
  kActiveSpecCount,      // aux=sample_seq a=spec_id b=active count for that spec
  kIoQueueDepth,         // a=queued jobs b=inflight jobs aux=1 on submit, 0 on job start
  kIoWriteCancelled,     // a=raw bytes of a queued write served from the pending cache
  kIoReadStall,          // a=stall_ns b=raw bytes aux=IoLoadSource
  kIoCodec,              // a=raw bytes b=framed (on-disk) bytes for one block
  kNodeSuspect,          // aux=node id, a=silence_ns since the last heartbeat
  kNodeDead,             // aux=node id, a=silence_ns at declaration
  kNodeDraining,         // aux=node id (escaped OME demoted it; job continues)
  kShuffleRetry,         // aux=destination node, a=attempt, b=backoff_us
  kLineageReexec,        // aux=split id, a=epoch re-executed, b=home node
  kShuffleRedeliver,     // aux=destination node, a=split id, b=seq
  kJobAdmitted,          // aux=job id, a=budget bytes/node, b=priority
  kJobDeferred,          // aux=job id, a=bytes short of admission, b=queue depth
  kJobCompleted,         // aux=job id, a=wall_ns queued->done, b=1 on failure
  kTenantYield,          // aux=job id (under budget: skipped a REDUCE, kept workers)
  kTenantShed,           // aux=job id, a=own overage bytes (over budget: full REDUCE)
  kNetFlush,             // aux=destination endpoint+1, a=messages in the batch, b=frame wire bytes
  kNetStall,             // aux=destination endpoint+1, a=stall_ns blocked on a full send queue, b=queue depth
  kMsgSend,              // aux=FlowAux(peer, msg kind), a=span id, b=payload bytes
  kMsgRecv,              // same encoding, emitted at receipt; a pairs it with its kMsgSend
  kNetFaultInjected,     // aux=FaultAux(dst, fault kind), a=frame serial, b=payload bytes affected
  kCtrlReconnect,        // aux=node id, a=attempts used, b=results re-shipped on resume
  kPartitionHealed,      // aux=node id, a=disconnected_ns before the heal
  kKindCount,            // sentinel — keep last
};

// Where an async load was served from (kIoReadStall aux).
enum class IoLoadSource : std::uint8_t {
  kPendingCache = 0,  // Queued write cancelled; served from memory.
  kInflightWait = 1,  // Waited for the in-flight write, then read the file.
  kDisk = 2,          // Durable on disk; plain read.
  kPrefetched = 3,    // Consumer waited on an already-running prefetch future.
};

// Why an interrupt victim was chosen (the paper's §5.4 priority rules).
enum class InterruptRule : std::uint8_t {
  kNone = 0,
  kMitaskFirst,     // Lost to an MITask peer: non-merge instances die first.
  kFinishLine,      // Farther from the finish line than the alternatives.
  kSpeed,           // Slowest instance (fewest tuples since activation).
  kOnlyCandidate,   // Sole running instance; no rule needed.
  kRandom,          // random_victims ablation.
  kOme,             // Allocation failure forced the interrupt.
  kAbort,           // Job abort unwound the activation.
  kBudget,          // Over budget: cheapest-to-serialize instance pays first.
};

inline constexpr std::uint8_t kFlagLugc = 0x1;  // kGc: the collection was useless.

// kMsgSend/kMsgRecv aux packing: low 8 bits are the wire MsgKind, the rest is
// the remote endpoint biased by +2 so the driver endpoint (-1) stays
// representable in an unsigned field. Exporters decode through these helpers
// instead of hand-rolling the off-by-N arithmetic (the old kNetFlush
// "endpoint+1" mistake).
inline constexpr std::uint32_t FlowAux(int peer, std::uint8_t msg_kind) {
  return (static_cast<std::uint32_t>(peer + 2) << 8) | msg_kind;
}
inline constexpr int FlowPeer(std::uint32_t aux) {
  return static_cast<int>(aux >> 8) - 2;
}
inline constexpr std::uint8_t FlowMsgKind(std::uint32_t aux) {
  return static_cast<std::uint8_t>(aux & 0xff);
}

struct Event {
  std::uint64_t t_ns = 0;  // Nanoseconds since the owning tracer's epoch.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t aux = 0;
  std::uint16_t node = 0;
  std::uint16_t tid = 0;   // Tracer-assigned emitting-thread index.
  EventKind kind = EventKind::kRuntimeStart;
  std::uint8_t flags = 0;
};

constexpr const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kRuntimeStart: return "runtime_start";
    case EventKind::kRuntimeStop: return "runtime_stop";
    case EventKind::kGc: return "gc";
    case EventKind::kPressureOn: return "pressure_on";
    case EventKind::kPressureOff: return "pressure_off";
    case EventKind::kSignalReduce: return "signal_reduce";
    case EventKind::kSignalGrow: return "signal_grow";
    case EventKind::kSignalSerialize: return "signal_serialize";
    case EventKind::kVictimSelect: return "victim_select";
    case EventKind::kTaskInterrupt: return "task_interrupt";
    case EventKind::kTaskReactivate: return "task_reactivate";
    case EventKind::kOmeInterrupt: return "ome_interrupt";
    case EventKind::kPartitionCreated: return "partition_created";
    case EventKind::kPartitionParked: return "partition_parked";
    case EventKind::kPartitionSerialized: return "partition_serialized";
    case EventKind::kPartitionLoaded: return "partition_loaded";
    case EventKind::kPartitionMerged: return "partition_merged";
    case EventKind::kSpillWrite: return "spill_write";
    case EventKind::kSpillRead: return "spill_read";
    case EventKind::kActiveSample: return "active_sample";
    case EventKind::kActiveSpecCount: return "active_spec_count";
    case EventKind::kIoQueueDepth: return "io_queue_depth";
    case EventKind::kIoWriteCancelled: return "io_write_cancelled";
    case EventKind::kIoReadStall: return "io_read_stall";
    case EventKind::kIoCodec: return "io_codec";
    case EventKind::kNodeSuspect: return "node_suspect";
    case EventKind::kNodeDead: return "node_dead";
    case EventKind::kNodeDraining: return "node_draining";
    case EventKind::kShuffleRetry: return "shuffle_retry";
    case EventKind::kLineageReexec: return "lineage_reexec";
    case EventKind::kShuffleRedeliver: return "shuffle_redeliver";
    case EventKind::kJobAdmitted: return "job_admitted";
    case EventKind::kJobDeferred: return "job_deferred";
    case EventKind::kJobCompleted: return "job_completed";
    case EventKind::kTenantYield: return "tenant_yield";
    case EventKind::kTenantShed: return "tenant_shed";
    case EventKind::kNetFlush: return "net_flush";
    case EventKind::kNetStall: return "net_stall";
    case EventKind::kMsgSend: return "msg_send";
    case EventKind::kMsgRecv: return "msg_recv";
    case EventKind::kNetFaultInjected: return "net_fault_injected";
    case EventKind::kCtrlReconnect: return "ctrl_reconnect";
    case EventKind::kPartitionHealed: return "partition_healed";
    case EventKind::kKindCount: break;
  }
  return "unknown";
}

constexpr const char* InterruptRuleName(InterruptRule rule) {
  switch (rule) {
    case InterruptRule::kNone: return "none";
    case InterruptRule::kMitaskFirst: return "mitask_first";
    case InterruptRule::kFinishLine: return "finish_line";
    case InterruptRule::kSpeed: return "speed";
    case InterruptRule::kOnlyCandidate: return "only_candidate";
    case InterruptRule::kRandom: return "random";
    case InterruptRule::kOme: return "ome";
    case InterruptRule::kAbort: return "abort";
    case InterruptRule::kBudget: return "budget";
  }
  return "unknown";
}

}  // namespace itask::obs

#endif  // ITASK_OBS_EVENT_H_
