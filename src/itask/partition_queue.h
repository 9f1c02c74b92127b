// PartitionQueue: the per-node queue of unprocessed and partially processed
// partitions (paper §5.3 "global partition queue").
//
// Partitions are grouped by type (which task consumes them) and, within a
// type, by tag (the MITask grouping key). A queued partition may have its
// payload spilled to disk by the partition manager while it waits; popping
// prefers resident partitions (the scheduler's spatial-locality rule).
#ifndef ITASK_ITASK_PARTITION_QUEUE_H_
#define ITASK_ITASK_PARTITION_QUEUE_H_

#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "itask/job_state.h"
#include "itask/partition.h"

namespace itask::core {

class PartitionQueue {
 public:
  explicit PartitionQueue(JobState* state) : state_(state) {}

  void Push(PartitionPtr dp);

  // Inserts all partitions under one lock so a concurrent PopTagGroup can
  // never observe a partial set (required by the MITask interrupt protocol).
  // All-or-nothing: if any insertion throws, already-inserted items are rolled
  // back (a half-applied batch would let a same-tag merge pop a partial
  // output without its inputs and emit a premature final result).
  void PushBatch(std::vector<PartitionPtr> items);

  // Pops one partition of |type|, preferring resident ones. Null if none.
  PartitionPtr PopOne(TypeId type);

  // Pops every partition sharing one tag of |type| (the tag with the most
  // resident data first). Empty if none.
  std::vector<PartitionPtr> PopTagGroup(TypeId type);

  bool HasAny(TypeId type) const;
  bool HasResident(TypeId type) const;
  std::size_t TotalCount() const;

  // Snapshot of queued resident partitions for spill decisions; partitions
  // remain queued (the manager mutates their residency in place).
  std::vector<PartitionPtr> ResidentSnapshot() const;

  // Every queued partition, resident or not (IrsAuditor's conservation and
  // state-machine checks; meaningful only when the node is quiescent).
  std::vector<PartitionPtr> Snapshot() const;

  // Node-failure recovery: removes (NotePop-ing) every queued partition and
  // closes the queue in the same critical section, so a zombie worker racing
  // the drain cannot slip a push in between — a push after close is silently
  // discarded (payload dropped, no counter movement). Returns the removed
  // partitions so the caller can Purge() them.
  std::vector<PartitionPtr> DrainAndClose();

  // Reverts DrainAndClose's closed state (Start() of a fresh run).
  void Reopen();

  bool closed() const;

 private:
  mutable std::mutex mu_;
  JobState* state_;
  bool closed_ = false;  // Guarded by mu_.
  // type -> tag -> FIFO of partitions.
  std::map<TypeId, std::map<Tag, std::deque<PartitionPtr>>> by_type_;
};

}  // namespace itask::core

#endif  // ITASK_ITASK_PARTITION_QUEUE_H_
