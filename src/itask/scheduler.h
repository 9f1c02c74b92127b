// Scheduler (paper §5.4): owns the worker pool, adapts the degree of
// parallelism to memory availability, and picks interrupt victims.
//
// Parallelism follows the paper's slow-start model: the target starts at one
// worker and each GROW signal (free memory >= N%) raises it by one, up to
// max_workers. Each REDUCE signal takes one step: first ask the partition
// manager to spill inactive partitions; if that cannot reach the safe zone,
// select one running victim by the priority rules — MITask instances survive
// longest, then tasks closer to the finish line, then faster instances — and
// request its termination (its scale loop interrupts at the next safe point).
#ifndef ITASK_ITASK_SCHEDULER_H_
#define ITASK_ITASK_SCHEDULER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "itask/partition.h"
#include "itask/types.h"
#include "obs/event.h"
#include "obs/metrics_registry.h"

namespace itask::core {

class IrsRuntime;
struct TaskSpec;

// A unit of dispatch: one partition (ITask) or one tag group (MITask).
struct WorkAssignment {
  const TaskSpec* spec = nullptr;
  PartitionPtr single;
  std::vector<PartitionPtr> group;

  bool valid() const { return spec != nullptr; }
  void Clear() {
    spec = nullptr;
    single.reset();
    group.clear();
  }
};

class Scheduler {
 public:
  struct Stats {
    std::uint64_t activations = 0;
    std::uint64_t interrupts = 0;      // Scale loops that returned false.
    std::uint64_t reactivations = 0;   // Activations of re-queued partitions.
    std::uint64_t victim_requests = 0;
    int peak_active = 0;
  };

  Scheduler(IrsRuntime* runtime, int max_workers);
  ~Scheduler();

  void Start();
  void Stop();

  // Work may have appeared (queue push / worker finish).
  void NotifyWork();

  // Monitor signals (paper Figure 8).
  void OnGrowSignal(bool force);
  void OnReduceSignal();

  // Scale-loop hooks.
  bool ApproveTermination(int worker_id);
  void CountTuple(int worker_id);
  // The activation on |worker_id| absorbed an OME as a forced interrupt:
  // stamps the request time with cause kOme, so the yield records its
  // latency exactly like a monitor-requested interrupt.
  void StampOmeInterrupt(int worker_id);

  int active_count() const { return active_.load(std::memory_order_relaxed); }
  int target() const { return target_.load(std::memory_order_relaxed); }

  // Per-spec running-instance counts on this node (Figure 11c trace).
  void ActiveBySpec(std::array<int, kMaxSpecs>& out) const;

  Stats stats() const;

 private:
  struct Worker {
    std::thread thread;
    WorkAssignment assignment;  // Guarded by Scheduler::mu_.
    bool busy = false;          // Guarded by Scheduler::mu_.
    std::atomic<bool> terminate_requested{false};
    std::atomic<std::uint64_t> tuples{0};  // Since activation start.
    int spec_id = -1;                      // Guarded by Scheduler::mu_.
    // Interrupt attribution: stamped with the request time and the §5.4 rule
    // that picked this worker, read back when the scale loop actually yields
    // (request -> interrupt delta feeds the latency histogram).
    std::atomic<std::uint64_t> terminate_request_ns{0};
    std::atomic<std::uint8_t> terminate_rule{0};  // obs::InterruptRule.
  };

  void WorkerLoop(int id);
  void TryDispatchLocked();
  void RequestTerminationLocked(Worker* victim, obs::InterruptRule rule);

  IrsRuntime* runtime_;
  const int max_workers_;
  obs::Histogram* interrupt_latency_;  // Lives in the runtime's registry.

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<int> target_{1};
  std::atomic<int> active_{0};
  bool stop_ = false;
  Stats stats_;
};

}  // namespace itask::core

#endif  // ITASK_ITASK_SCHEDULER_H_
