#include "itask/partition_manager.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "common/logging.h"
#include "itask/runtime.h"

namespace itask::core {
namespace {

// Stable-sorts |parts| by a key read once per partition, before sorting.
// Payload sizes and load times change under concurrent spills, appends and
// reloads; a comparator that reads them live is not a strict weak ordering,
// and std::stable_sort then reads past the ends of its buffers.
template <class KeyFn, class Before>
void SortByKeySnapshot(std::vector<PartitionPtr>* parts, KeyFn key_of, Before before) {
  using Key = decltype(key_of(parts->front()));
  std::vector<std::pair<Key, PartitionPtr>> keyed;
  keyed.reserve(parts->size());
  for (PartitionPtr& dp : *parts) {
    keyed.emplace_back(key_of(dp), std::move(dp));
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&before](const auto& a, const auto& b) { return before(a.first, b.first); });
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    (*parts)[i] = std::move(keyed[i].second);
  }
}

}  // namespace

PartitionManager::PartitionManager(IrsRuntime* runtime, std::chrono::milliseconds thrash_window)
    : runtime_(runtime),
      thrash_window_(thrash_window),
      lazy_serialized_(&runtime->metrics().counter("irs.lazy_serialized_bytes")) {}

std::uint64_t PartitionManager::SpillStep(std::uint64_t bytes_goal) {
  CHAOS_POINT("pm.spill_step");
  std::vector<PartitionPtr> candidates = runtime_->queue().ResidentSnapshot();
  if (candidates.empty()) {
    return 0;
  }
  const auto now = std::chrono::steady_clock::now();
  const TaskGraph& graph = runtime_->graph();

  // Priority to *stay in memory*: consumers close to the finish line and to
  // the currently running tasks. We therefore spill partitions whose consumer
  // is farthest from the finish line first, then the largest payloads.
  auto distance_of = [&graph](const PartitionPtr& dp) {
    const TaskSpec* consumer = graph.ConsumerOf(dp->type());
    return consumer != nullptr ? consumer->finish_distance : 0;
  };
  SortByKeySnapshot(
      &candidates,
      [&](const PartitionPtr& dp) { return std::make_pair(distance_of(dp), dp->PayloadBytes()); },
      std::greater<>());

  obs::Tracer* tracer = runtime_->tracer();
  const std::uint16_t node = runtime_->trace_node();
  auto spill_one = [&](const PartitionPtr& dp) -> std::uint64_t {
    CHAOS_POINT("pm.spill_one");
    // Finish-line distance doubles as the async write priority: spills of
    // partitions near completion drain first, parked ones linger in the
    // queue where a reload can still cancel them.
    // SpillIfIdle re-checks the pin flag under the partition's state lock:
    // the snapshot above is stale the moment a worker pops (pins) a
    // candidate, and spilling a worker-owned payload mid-iteration is a
    // use-after-free of its tuples.
    std::uint64_t bytes = 0;
    try {
      bytes = dp->SpillIfIdle(distance_of(dp));
    } catch (const std::exception& e) {
      // A failed spill write (injected or real) leaves the partition resident
      // and intact; skip this victim and try the next one.
      LOG_WARN() << "spill failed for type " << dp->type() << ": " << e.what();
      return 0;
    }
    if (bytes > 0) {
      tracer->Emit(obs::EventKind::kPartitionSerialized, node, bytes,
                   static_cast<std::uint64_t>(distance_of(dp)),
                   static_cast<std::uint32_t>(dp->type()));
    }
    return bytes;
  };

  std::uint64_t freed = 0;
  std::vector<PartitionPtr> recently_loaded;
  for (const PartitionPtr& dp : candidates) {
    if (freed >= bytes_goal) {
      break;
    }
    if (dp->pinned() || !dp->resident()) {
      continue;
    }
    // Thrash control: partitions deserialized within the cooldown window are
    // not spilled (the write + imminent reload is the ping-pong the window
    // exists to prevent).
    if (now - dp->last_load_time() < thrash_window_) {
      recently_loaded.push_back(dp);
      continue;
    }
    freed += spill_one(dp);
  }
  if (freed < bytes_goal && !recently_loaded.empty()) {
    // All remaining candidates are recent: spill the oldest-loaded ones
    // anyway (the paper's fallback when no partition has an earlier stamp).
    SortByKeySnapshot(
        &recently_loaded, [](const PartitionPtr& dp) { return dp->last_load_time(); },
        std::less<>());
    for (const PartitionPtr& dp : recently_loaded) {
      if (freed >= bytes_goal) {
        break;
      }
      if (!dp->pinned() && dp->resident()) {
        freed += spill_one(dp);
      }
    }
  }
  if (freed > 0) {
    lazy_serialized_->Add(freed);
    tracer->Emit(obs::EventKind::kSignalSerialize, node, bytes_goal, freed);
    LOG_DEBUG() << "PartitionManager spilled " << freed << " bytes (goal " << bytes_goal << ")";
  }
  return freed;
}

void PartitionManager::EnsureResident(const PartitionPtr& dp) {
  const bool was_resident = dp->resident();
  dp->EnsureResident();
  if (!was_resident) {
    runtime_->tracer()->Emit(obs::EventKind::kPartitionLoaded, runtime_->trace_node(),
                             dp->PayloadBytes(), 0, static_cast<std::uint32_t>(dp->type()));
  }
}

void PartitionManager::SpillDirect(const PartitionPtr& dp) {
  const std::uint64_t bytes = dp->Spill();
  if (bytes > 0) {
    lazy_serialized_->Add(bytes);
    runtime_->tracer()->Emit(obs::EventKind::kPartitionSerialized, runtime_->trace_node(), bytes, 0,
                             static_cast<std::uint32_t>(dp->type()));
  }
}

}  // namespace itask::core
