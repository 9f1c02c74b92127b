// SpillManager: per-node spill-to-disk service used by the IRS partition
// manager to lazily serialize partitions under memory pressure and page them
// back on re-activation.
//
// Spills go to a per-node spill log under a node-private directory: a few
// large append-only segment files (seg-<n>.log), not one file per spill.
// Spill reserves [offset, offset + n) at the end of the active segment under
// the lock, then pwrites with no lock held; LoadAndRemove preads the extent.
// When a reservation does not fit in the active segment's kSegmentBytes, the
// segment is sealed and a fresh one becomes active (an empty segment takes a
// spill of any size). Each segment counts its live extents, in-flight writes
// and reads included. A sealed segment is closed and unlinked when its last
// extent dies; when the active segment empties, its write offset goes back
// to 0 and its blocks are reused in place. So the hot path makes no metadata
// syscall (open, close, unlink, truncate) per spill, and the directory holds
// at most one segment once every spill is loaded or removed. Reclaim is per
// segment: one long-lived extent pins its whole sealed segment, so while
// spills are live the directory holds at most (live spills + 1) segments and
// about (live spills + 1) * kSegmentBytes on disk, not just the live bytes
// (a spill larger than kSegmentBytes gets a segment of its own). Handles are
// opaque ids; I/O byte counters feed the paper's lazy-serialization
// breakdown (Table 2) and the read-stall discussion in §6.2.
// SpillStats::live_files counts live spills (extents), not files.
//
// The core entry points (Spill / LoadAndRemove / Remove / Stats) are virtual:
// io::AsyncSpillManager layers a background write queue, a pending-write
// cache with cancellation, and block compression on top of this synchronous
// base while every caller keeps talking to a SpillManager*. SupportsAsync()
// and LoadAsync() let callers opportunistically prefetch when the node wired
// in the async engine, with a synchronous fallback otherwise.
//
// Failure injection: SetFailureInjection arms a deterministic fault point
// (probability per op, or every nth op) on the write and/or read path so
// tests and chaos configs can force spill I/O errors. Injected and real write
// failures both burn only their reserved range: they record no extent and
// leave stats untouched. Injected read failures throw before any state
// changes, and a real read failure (short read included) throws with the
// extent restored, so the spill stays loadable. No lock is held across I/O.
#ifndef ITASK_SERDE_SPILL_MANAGER_H_
#define ITASK_SERDE_SPILL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/byte_buffer.h"
#include "obs/tracer.h"

namespace itask::serde {

struct SpillStats {
  std::uint64_t spilled_bytes = 0;
  std::uint64_t loaded_bytes = 0;
  std::uint64_t spill_count = 0;
  std::uint64_t load_count = 0;
  std::uint64_t live_files = 0;       // Live spills (extents), not segment files.
  std::uint64_t live_file_bytes = 0;  // Their bytes.
  std::uint64_t injected_failures = 0;  // Faults fired by the injection point.
  std::uint64_t load_retries = 0;       // Reloads re-attempted after a read fault.
  double write_ms = 0.0;
  double read_ms = 0.0;
};

// Deterministic I/O fault point, configured per manager (ClusterConfig wires
// the cluster-wide setting and the ITASK_IO_FAIL_* env overrides through).
// `every_nth` == n fails every nth spill/load op (1-based); `*_probability`
// draws from a private xorshift stream seeded with `seed` so runs replay.
struct SpillFailureInjection {
  double write_probability = 0.0;
  double read_probability = 0.0;
  std::uint64_t every_nth = 0;  // 0 = disabled.
  std::uint64_t seed = 0x5eedf00dULL;

  bool enabled() const {
    return write_probability > 0.0 || read_probability > 0.0 || every_nth != 0;
  }
};

class SpillManager {
 public:
  using SpillId = std::uint64_t;

  // Segment size at which the active segment is sealed and a new one started.
  static constexpr std::uint64_t kSegmentBytes = 4ULL << 20;

  // Creates (and owns) a fresh directory under |root|, unique per manager
  // within the process; the directory and all remaining segments are removed
  // on destruction.
  explicit SpillManager(const std::filesystem::path& root, const std::string& node_name);
  virtual ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  // Appends |buffer| to the spill log and returns its id. Throws std::runtime_error
  // on I/O failure. |priority| orders queued writes in the async engine
  // (lower drains sooner); the synchronous base ignores it.
  virtual SpillId Spill(const common::ByteBuffer& buffer, int priority = 0);

  // Reads the spill back into a buffer and frees its extent.
  virtual common::ByteBuffer LoadAndRemove(SpillId id);

  // Drops a spill without reading it (e.g. job aborted).
  virtual void Remove(SpillId id);

  virtual SpillStats Stats() const;

  // ---- Async surface (overridden by io::AsyncSpillManager) ----

  // True when LoadAsync actually overlaps with compute; prefetchers skip the
  // call otherwise rather than stalling on the synchronous fallback.
  virtual bool SupportsAsync() const { return false; }

  // Load-and-remove as a future. The base implementation resolves it inline
  // (synchronously); the async engine schedules it on the I/O pool at load
  // priority (ahead of all queued writes).
  virtual std::future<common::ByteBuffer> LoadAsync(SpillId id, int priority = 0);

  // Consumer-side stall report for prefetched loads: the time a worker spent
  // blocked on a LoadAsync future it had started ahead of need. The async
  // engine folds it into its read-stall histogram; the base ignores it.
  virtual void NotePrefetchWait(std::uint64_t wait_ns, std::uint64_t bytes) {
    (void)wait_ns;
    (void)bytes;
  }

  void SetFailureInjection(const SpillFailureInjection& injection);

  // Called by DataPartition when a LoadAndRemove attempt failed and is being
  // retried; surfaces injected/real read faults in stats instead of letting
  // the retry loop burn CPU invisibly. Non-virtual on purpose: the async
  // engine's loads funnel through the same base counter.
  void NoteLoadRetry() { load_retries_.fetch_add(1, std::memory_order_relaxed); }

  const std::filesystem::path& directory() const { return dir_; }

  // Emits kSpillWrite/kSpillRead events (byte counts) into |tracer|, stamped
  // with |node_id|. Wired by the owning cluster::Node.
  void SetTracer(obs::Tracer* tracer, int node_id) {
    tracer_ = tracer;
    trace_node_ = static_cast<std::uint16_t>(node_id);
  }

 protected:
  obs::Tracer* tracer() const { return tracer_; }
  std::uint16_t trace_node() const { return trace_node_; }

  // Fires the injected fault for one write/read op if armed. Throws
  // std::runtime_error (after counting the failure) when the op must fail.
  void MaybeInjectFailure(bool is_write);

 private:
  // One append-only file of the spill log.
  struct Segment {
    std::uint64_t index = 0;  // File name seg-<index>.log.
    int fd = -1;
    std::uint64_t end = 0;    // Next free offset.
    std::uint64_t live = 0;   // Reserved extents not yet dead, in-flight I/O included.
  };

  // Where one spill lives in the log.
  struct Extent {
    Segment* segment = nullptr;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };

  std::filesystem::path SegmentPath(std::uint64_t index) const;

  // Creates a new, empty segment file; touches no shared state.
  std::unique_ptr<Segment> OpenSegment();

  // Reserves |bytes| at the end of the active segment. Returns false when it
  // does not fit and |fresh| is null; otherwise seals the active segment if
  // needed, installs |fresh| as the new one and reserves there.
  bool ReserveLocked(std::uint64_t bytes, std::unique_ptr<Segment>* fresh, Extent* extent);

  // Kills one extent of |segment|. Returns the segment when it must now be
  // closed and unlinked (with CloseSegment, after the lock is released).
  std::unique_ptr<Segment> DropExtentLocked(Segment* segment);

  // Closes and unlinks |segment|; a no-op when it is null.
  void CloseSegment(std::unique_ptr<Segment> segment) const;

  obs::Tracer* tracer_ = nullptr;
  std::uint16_t trace_node_ = 0;
  std::filesystem::path dir_;
  mutable std::mutex mu_;
  std::unordered_map<SpillId, Extent> extents_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Segment>> segments_;  // By index.
  Segment* active_ = nullptr;
  std::atomic<std::uint64_t> next_segment_{0};
  SpillId next_id_ = 1;
  SpillStats stats_;

  SpillFailureInjection inject_;
  std::atomic<std::uint64_t> inject_ops_{0};
  std::atomic<std::uint64_t> inject_rng_{0};
  std::atomic<std::uint64_t> load_retries_{0};
};

}  // namespace itask::serde

#endif  // ITASK_SERDE_SPILL_MANAGER_H_
