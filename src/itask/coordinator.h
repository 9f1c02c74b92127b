// JobCoordinator: drives one ITask job across the IRS instances of every
// node in the simulated cluster and detects global completion.
//
// With fault tolerance enabled (EnableFaultTolerance) the poll loop doubles
// as the cluster's failure detector: it applies scheduled faults via the
// fault-poll hook, walks silent nodes through alive -> suspect -> dead on
// heartbeat timeouts, fences dead/draining nodes and runs lineage recovery,
// and only declares the job done once the recovery ledger is fully drained
// (every split committed, every entry delivered, every tag sunk).
#ifndef ITASK_ITASK_COORDINATOR_H_
#define ITASK_ITASK_COORDINATOR_H_

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "itask/job_state.h"
#include "itask/runtime.h"

namespace itask::core {

class RecoveryContext;

class JobCoordinator {
 public:
  JobCoordinator(std::shared_ptr<JobState> state, std::vector<IrsRuntime*> runtimes)
      : state_(std::move(state)), runtimes_(std::move(runtimes)) {}

  // Opts the job into node-failure recovery. |recovery| must outlive Run().
  void EnableFaultTolerance(RecoveryContext* recovery) { recovery_ = recovery; }

  // Hook invoked once per poll tick with the elapsed job time; the cluster's
  // failure model uses it to inject kill/hang/poison faults on schedule. It
  // returns true to hold the job open (an injected fault awaits detection).
  void SetFaultPoll(std::function<bool(double elapsed_ms)> poll) {
    fault_poll_ = std::move(poll);
  }

  // Starts every runtime, invokes |feed| (which pushes all external input),
  // marks external input done, then blocks until the job is globally
  // quiescent or aborted. Runtimes are stopped before returning.
  // |deadline_ms| > 0 aborts the job after that long (guards against
  // workloads whose final result genuinely cannot fit the heap).
  // Returns true on success, false if the job aborted.
  bool Run(const std::function<void()>& feed, double deadline_ms = 0.0);

  // Sums per-node metrics and stamps the wall time of the last Run(); folds
  // in the recovery counters when fault tolerance is on.
  common::RunMetrics AggregateMetrics() const;

 private:
  // One failure-detector pass over the membership view. Declares silent
  // nodes suspect/dead, fences newly dead or draining nodes and triggers
  // lineage recovery for them. Returns false when the cluster can no longer
  // complete the job (no serving nodes remain).
  bool DetectFailures();

  std::shared_ptr<JobState> state_;
  std::vector<IrsRuntime*> runtimes_;
  RecoveryContext* recovery_ = nullptr;
  std::function<bool(double)> fault_poll_;
  // Nodes whose loss has already been recovered (fenced + ledger repaired).
  std::vector<bool> lost_handled_;
  std::uint64_t nodes_failed_ = 0;
  std::uint64_t nodes_draining_ = 0;
  // Disconnected nodes whose beats resumed inside the grace window.
  std::uint64_t partitions_healed_ = 0;
  double wall_ms_ = 0.0;
  bool aborted_ = false;
};

}  // namespace itask::core

#endif  // ITASK_ITASK_COORDINATOR_H_
