// Regular (non-ITask) execution harness — the baseline the paper compares
// against: a Hyracks-style engine that runs a fixed number of worker threads
// per node with persistent per-thread operator state, stage by stage, with no
// interrupts and no spilling. An OutOfMemoryError on any thread crashes the
// whole job, exactly like an uncaught OME in a Hyracks/Hadoop worker JVM.
#ifndef ITASK_DATAFLOW_REGULAR_H_
#define ITASK_DATAFLOW_REGULAR_H_

#include <atomic>
#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "common/blocking_queue.h"
#include "common/metrics.h"
#include "common/spin.h"
#include "itask/partition.h"
#include "memsim/managed_heap.h"
#include "serde/spill_manager.h"

namespace itask::dataflow {

class RegularHarness {
 public:
  // Takes every node's heap and spill counters as this job's baseline, so
  // Finish reports the job's own share on a reused cluster. Construct it
  // before loading the job's input, as cluster::ItaskJob does, so GCs during
  // the load count; call StartClock once the input is loaded.
  explicit RegularHarness(cluster::Cluster& cluster);

  // Starts the job's wall clock: regular wall time covers the stages only.
  void StartClock() { watch_.Reset(); }

  // Runs |body(node, thread)| on |threads| threads per node, all nodes
  // concurrently; blocks until every thread returns. An OutOfMemoryError on
  // any thread marks the job crashed (other threads should poll aborted()).
  // Returns false once the job has crashed.
  bool RunStage(int threads, const std::function<void(int node, int thread)>& body);

  // True once any thread hit an OME (stages should drain quickly then).
  bool aborted() const { return ome_.load(std::memory_order_relaxed); }

  // Aggregates the job's heap/spill counter deltas across nodes (the peak
  // heap stays node-lifetime) and stamps wall time and the crash flag. Call
  // once at the end of the job.
  common::RunMetrics Finish();

  cluster::Cluster& cluster() { return cluster_; }

 private:
  cluster::Cluster& cluster_;
  std::vector<memsim::HeapStats> heap_base_;
  std::vector<serde::SpillStats> spill_base_;
  common::Stopwatch watch_;
  std::atomic<bool> ome_{false};
};

// Per-node work queues for one stage of a regular job.
class StageQueues {
 public:
  explicit StageQueues(int nodes) : queues_(static_cast<std::size_t>(nodes)) {}

  void Push(int node, core::PartitionPtr dp) {
    queues_[static_cast<std::size_t>(node)].Push(std::move(dp));
  }
  // Close all queues: consumers drain and stop.
  void CloseAll() {
    for (auto& q : queues_) {
      q.Close();
    }
  }
  std::optional<core::PartitionPtr> Pop(int node) {
    return queues_[static_cast<std::size_t>(node)].Pop();
  }
  std::optional<core::PartitionPtr> TryPop(int node) {
    return queues_[static_cast<std::size_t>(node)].TryPop();
  }

 private:
  std::vector<common::BlockingQueue<core::PartitionPtr>> queues_;
};

}  // namespace itask::dataflow

#endif  // ITASK_DATAFLOW_REGULAR_H_
