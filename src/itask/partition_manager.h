// PartitionManager (paper §5.3): decides when and which queued partitions to
// serialize to disk under pressure, and pages them back on demand.
//
// Spill victim ordering implements the paper's rules:
//   - Temporal locality / finish line: inputs of tasks far from the finish
//     line are spilled first (they will be needed last).
//   - Thrash control: a partition deserialized within the cooldown window is
//     skipped unless every candidate is recent (then the oldest-loaded goes).
#ifndef ITASK_ITASK_PARTITION_MANAGER_H_
#define ITASK_ITASK_PARTITION_MANAGER_H_

#include <chrono>
#include <cstdint>

#include "itask/partition.h"
#include "obs/metrics_registry.h"

namespace itask::core {

class IrsRuntime;

class PartitionManager {
 public:
  PartitionManager(IrsRuntime* runtime, std::chrono::milliseconds thrash_window);

  // Spills queued, unpinned partitions until at least |bytes_goal| managed
  // bytes are freed or no candidates remain. Returns the bytes freed.
  std::uint64_t SpillStep(std::uint64_t bytes_goal);

  // Loads a spilled partition back (charging the heap; may throw OME).
  void EnsureResident(const PartitionPtr& dp);

  // Spills one specific partition (e.g. the unreached members of an
  // interrupted merge group, which are pinned and thus invisible to
  // SpillStep). Counts toward lazy serialization.
  void SpillDirect(const PartitionPtr& dp);

  std::uint64_t lazy_serialized_bytes() const { return lazy_serialized_->value(); }

 private:
  IrsRuntime* runtime_;
  std::chrono::milliseconds thrash_window_;
  obs::Counter* lazy_serialized_;  // Lives in the runtime's registry.
};

}  // namespace itask::core

#endif  // ITASK_ITASK_PARTITION_MANAGER_H_
