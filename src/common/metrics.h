// Run-level metrics shared by tests, benches and examples.
#ifndef ITASK_COMMON_METRICS_H_
#define ITASK_COMMON_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "obs/histogram.h"  // Header-only; no link dependency on itask_obs.

namespace itask::common {

// How RunMetrics::Merge folds a field of another record into this one.
enum class FoldRule : std::uint8_t {
  kSum,    // Counters and summed times.
  kMax,    // Peaks and wall time.
  kOr,     // "Any input saw it" flags.
  kAnd,    // "Every input did it" flags.
  kXor,    // Order-independent fingerprints.
  kMerge,  // Histograms, bucket-wise (obs::HistogramSnapshot::Merge).
};

// The RunMetrics field table, one X(type, name, fold rule) entry per field,
// in wire order. It declares the members; Merge, the wire codec and its
// version (net/metrics_wire.h) and chaos_run's per-job JSON walk it, so
// adding a counter is one line here plus the code that fills it.
//
// No field has a scope rule. Per-node sources (IrsRuntime::NodeMetrics, the
// regular harness) fill only heap, spill, I/O, scheduler and Table-2 fields;
// job-wide sources (the shuffle fabric, the recovery context, the tracer)
// fill the rest once, after the per-node fold; callers stamp wall_ms and
// succeeded last. So one Merge serves node -> job, process -> cluster and
// job -> rollup folds without double-counting.
#define ITASK_RUN_METRICS_FIELDS(X)                                                   \
  X(bool, succeeded, kAnd)                                                            \
  X(bool, out_of_memory, kOr)                                                         \
  /* End-to-end wall time (includes GC pauses). */                                    \
  X(double, wall_ms, kMax)                                                            \
  /* Stop-the-world collector time, summed across nodes. */                           \
  X(double, gc_ms, kSum)                                                              \
  X(std::uint64_t, gc_count, kSum)                                                    \
  X(std::uint64_t, lugc_count, kSum)                                                  \
  /* Max over nodes of per-node peak usage (node-lifetime, not per job). */           \
  X(std::uint64_t, peak_heap_bytes, kMax)                                             \
  /* ITask-specific counters (zero for regular executions). */                        \
  X(std::uint64_t, interrupts, kSum)                                                  \
  X(std::uint64_t, ome_interrupts, kSum)                                              \
  X(std::uint64_t, reactivations, kSum)                                               \
  /* Interrupt victims the scheduler selected (paper 5.4 rules). Every scale-loop  */ \
  /* interrupt on a non-aborted run is explained by a victim request, an OME or a  */ \
  /* fence; IrsAuditor checks that inequality (invariant T3).                      */ \
  X(std::uint64_t, victim_requests, kSum)                                             \
  /* Scale-loop interrupts forced by a node fence (failure injection or death). */    \
  X(std::uint64_t, fence_interrupts, kSum)                                            \
  X(std::uint64_t, spilled_bytes, kSum)                                               \
  X(std::uint64_t, loaded_bytes, kSum)                                                \
  /* Spill reloads re-attempted after read faults. */                                 \
  X(std::uint64_t, load_retries, kSum)                                                \
  /* Staged-release savings breakdown (paper Table 2), in bytes. */                   \
  X(std::uint64_t, released_processed_input_bytes, kSum)                              \
  X(std::uint64_t, released_final_result_bytes, kSum)                                 \
  X(std::uint64_t, parked_intermediate_bytes, kSum)                                   \
  X(std::uint64_t, lazy_serialized_bytes, kSum)                                       \
  /* Async spill I/O engine (zero with synchronous I/O): queued writes served  */     \
  /* from memory and their bytes, codec payload and on-disk bytes, and the     */     \
  /* total consumer-visible read stall.                                        */     \
  X(std::uint64_t, io_cancelled_writes, kSum)                                         \
  X(std::uint64_t, io_cancelled_write_bytes, kSum)                                    \
  X(std::uint64_t, io_raw_bytes, kSum)                                                \
  X(std::uint64_t, io_framed_bytes, kSum)                                             \
  X(double, io_read_stall_ms, kSum)                                                   \
  /* Net transport, job-wide from the shuffle fabric (zero on inproc): coalesced */   \
  /* frames, wire bytes incl. headers, producer stalls on a full queue, batches  */   \
  /* requeued for reconnect, deliveries retried on a lost ack, receiver dedup.   */   \
  X(std::uint64_t, net_msgs_sent, kSum)                                               \
  X(std::uint64_t, net_frames_sent, kSum)                                             \
  X(std::uint64_t, net_bytes_sent, kSum)                                              \
  X(std::uint64_t, net_send_stalls, kSum)                                             \
  X(double, net_stall_ms, kSum)                                                       \
  X(std::uint64_t, net_send_retries, kSum)                                            \
  X(std::uint64_t, net_ack_timeouts, kSum)                                            \
  X(std::uint64_t, net_dup_payloads_dropped, kSum)                                    \
  X(std::uint64_t, net_heartbeats_sent, kSum)                                         \
  /* Send-queue depth at enqueue. */                                                  \
  X(obs::HistogramSnapshot, net_queue_depth_hist, kMerge)                             \
  /* Fault tolerance, job-wide from the recovery context (zero when disabled): */     \
  /* nodes declared dead or demoted to draining, lineage re-executions, delivery */   \
  /* attempts beyond the first, ledger re-sends after a death, dedup audit.      */   \
  X(std::uint64_t, nodes_failed, kSum)                                                \
  X(std::uint64_t, nodes_draining, kSum)                                              \
  X(std::uint64_t, splits_reexecuted, kSum)                                           \
  X(std::uint64_t, shuffle_retries, kSum)                                             \
  X(std::uint64_t, shuffle_redeliveries, kSum)                                        \
  X(std::uint64_t, duplicate_tuples_dropped, kSum)                                    \
  /* Network faults and resilience, job-wide: fault-engine decisions that fired, */   \
  /* kDisconnected nodes whose beats came back, BackoffUse retries and give-ups. */   \
  X(std::uint64_t, net_faults_injected, kSum)                                         \
  X(std::uint64_t, partitions_healed, kSum)                                           \
  X(std::uint64_t, backoff_retries, kSum)                                             \
  X(std::uint64_t, backoff_giveups, kSum)                                             \
  /* Tracer ring overwrites before any drain saw them: non-zero means the trace */    \
  /* (and anything derived from it) undercounts.                                */    \
  X(std::uint64_t, events_dropped, kSum)                                              \
  /* Result fingerprint for cross-checking regular vs ITask runs. */                  \
  X(std::uint64_t, result_checksum, kXor)                                             \
  X(std::uint64_t, result_records, kSum)                                              \
  /* Latency distributions from the obs registry (empty for regular runs). */         \
  X(obs::HistogramSnapshot, gc_pause_hist, kMerge)                                    \
  X(obs::HistogramSnapshot, interrupt_latency_hist, kMerge)                           \
  X(obs::HistogramSnapshot, io_read_stall_hist, kMerge)

// Outcome of one execution of a data-parallel job on the simulated cluster.
struct RunMetrics {
#define ITASK_DECLARE_RUN_METRICS_FIELD(type, name, rule) type name{};
  ITASK_RUN_METRICS_FIELDS(ITASK_DECLARE_RUN_METRICS_FIELD)
#undef ITASK_DECLARE_RUN_METRICS_FIELD

  // Calls f(name, field, rule) for every field, in table order. M is
  // RunMetrics or const RunMetrics.
  template <class M, class F>
  static void ForEachField(M& m, F&& f) {
#define ITASK_VISIT_RUN_METRICS_FIELD(type, name, rule) f(#name, m.name, FoldRule::rule);
    ITASK_RUN_METRICS_FIELDS(ITASK_VISIT_RUN_METRICS_FIELD)
#undef ITASK_VISIT_RUN_METRICS_FIELD
  }

  // Folds |other| into this record, each field by its table rule. succeeded
  // ANDs, so a rollup either starts from a copy of its first input or seeds
  // succeeded = true.
  void Merge(const RunMetrics& other);

  // framed/raw over everything written; 1.0 when nothing was written.
  double IoCompressionRatio() const {
    return io_raw_bytes == 0
               ? 1.0
               : static_cast<double>(io_framed_bytes) / static_cast<double>(io_raw_bytes);
  }

  // Wall time net of collector pauses. gc_ms sums per-node pause time, so on
  // a multi-node run (pauses overlap in wall time) it can exceed wall_ms;
  // clamp at zero rather than report a negative compute time.
  double ComputeMs() const { return wall_ms - std::min(gc_ms, wall_ms); }

  std::string Summary() const;
};

// Formats a byte count as a human-readable string ("12.3MB").
std::string FormatBytes(std::uint64_t bytes);

}  // namespace itask::common

#endif  // ITASK_COMMON_METRICS_H_
