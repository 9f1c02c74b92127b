#include "itask/partition_queue.h"

#include <algorithm>

#include "chaos/chaos.h"
#include "itask/types.h"

namespace itask::core {

namespace {

// Debug-mode S2 check: pushing a partition that is already queued would
// duplicate its tag data on re-activation. Logged, not thrown — the caller is
// a worker mid-interrupt-protocol where an exception reads as a task failure.
void AuditNotAlreadyQueued(const std::deque<PartitionPtr>& fifo, const PartitionPtr& dp) {
  if (!chaos::AuditEnabled()) {
    return;
  }
  if (std::find(fifo.begin(), fifo.end(), dp) != fifo.end()) {
    chaos::NoteViolation("S2: partition of type " + TypeIds::Name(dp->type()) +
                         " pushed while already queued (tag data would duplicate)");
  }
}

}  // namespace

// Counter discipline (invariant C1): NotePush precedes the physical insert
// and NotePop follows the physical removal, both under mu_. Counter readers
// (quiescence / merge-readiness checks) do not take mu_, so this ordering
// guarantees they can never see fewer queued partitions counted than are
// physically present — an under-count would let UpstreamQuiescent dispatch a
// merge while a producer's output is in the queue but not yet counted.
void PartitionQueue::Push(PartitionPtr dp) {
  const TypeId type = dp->type();
  dp->set_pinned(false);
  std::lock_guard lock(mu_);
  if (closed_) {
    // Node is fenced for recovery: the push is from a zombie worker unwinding.
    // Discard without touching counters — the drain already accounted for
    // everything this node owned, and the data re-materializes from lineage.
    dp->DropPayload();
    return;
  }
  auto& fifo = by_type_[type][dp->tag()];
  AuditNotAlreadyQueued(fifo, dp);
  state_->NotePush(type);
  try {
    fifo.push_back(std::move(dp));
  } catch (...) {
    state_->NotePop(type);
    throw;
  }
}

void PartitionQueue::PushBatch(std::vector<PartitionPtr> items) {
  std::lock_guard lock(mu_);
  if (closed_) {
    for (const auto& dp : items) {
      dp->DropPayload();
    }
    return;
  }
  std::size_t inserted = 0;
  try {
    for (; inserted < items.size(); ++inserted) {
      PartitionPtr& dp = items[inserted];
      dp->set_pinned(false);
      auto& fifo = by_type_[dp->type()][dp->tag()];
      AuditNotAlreadyQueued(fifo, dp);
      state_->NotePush(dp->type());
      fifo.push_back(dp);
    }
  } catch (...) {
    // Roll back so no partial group is ever poppable. Each inserted item is
    // the back of its (type, tag) FIFO — nothing else can have touched the
    // queue while mu_ is held.
    while (inserted > 0) {
      --inserted;
      const PartitionPtr& dp = items[inserted];
      by_type_[dp->type()][dp->tag()].pop_back();
      state_->NotePop(dp->type());
    }
    throw;
  }
}

PartitionPtr PartitionQueue::PopOne(TypeId type) {
  std::lock_guard lock(mu_);
  auto it = by_type_.find(type);
  if (it == by_type_.end()) {
    return nullptr;
  }
  // Spatial locality: prefer a resident partition across all tags.
  std::deque<PartitionPtr>* fallback = nullptr;
  for (auto& [tag, fifo] : it->second) {
    if (fifo.empty()) {
      continue;
    }
    if (fallback == nullptr) {
      fallback = &fifo;
    }
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      if (fifo[i]->resident()) {
        PartitionPtr dp = fifo[i];
        fifo.erase(fifo.begin() + static_cast<std::ptrdiff_t>(i));
        dp->set_pinned(true);
        state_->NotePop(type);
        return dp;
      }
    }
  }
  if (fallback == nullptr) {
    return nullptr;
  }
  PartitionPtr dp = fallback->front();
  fallback->pop_front();
  dp->set_pinned(true);
  state_->NotePop(type);
  return dp;
}

std::vector<PartitionPtr> PartitionQueue::PopTagGroup(TypeId type) {
  std::lock_guard lock(mu_);
  auto it = by_type_.find(type);
  if (it == by_type_.end()) {
    return {};
  }
  // Pick the tag with the most resident bytes (ties: first tag).
  Tag best_tag = kNoTag;
  std::uint64_t best_resident = 0;
  bool found = false;
  for (auto& [tag, fifo] : it->second) {
    if (fifo.empty()) {
      continue;
    }
    std::uint64_t resident = 0;
    for (const auto& dp : fifo) {
      if (dp->resident()) {
        resident += dp->PayloadBytes() + 1;
      }
    }
    if (!found || resident > best_resident) {
      found = true;
      best_tag = tag;
      best_resident = resident;
    }
  }
  if (!found) {
    return {};
  }
  auto& fifo = it->second[best_tag];
  std::vector<PartitionPtr> group(fifo.begin(), fifo.end());
  fifo.clear();
  for (const auto& dp : group) {
    dp->set_pinned(true);
  }
  state_->NotePop(type, group.size());
  return group;
}

bool PartitionQueue::HasAny(TypeId type) const {
  std::lock_guard lock(mu_);
  auto it = by_type_.find(type);
  if (it == by_type_.end()) {
    return false;
  }
  for (const auto& [tag, fifo] : it->second) {
    if (!fifo.empty()) {
      return true;
    }
  }
  return false;
}

bool PartitionQueue::HasResident(TypeId type) const {
  std::lock_guard lock(mu_);
  auto it = by_type_.find(type);
  if (it == by_type_.end()) {
    return false;
  }
  for (const auto& [tag, fifo] : it->second) {
    for (const auto& dp : fifo) {
      if (dp->resident()) {
        return true;
      }
    }
  }
  return false;
}

std::size_t PartitionQueue::TotalCount() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [type, tags] : by_type_) {
    for (const auto& [tag, fifo] : tags) {
      n += fifo.size();
    }
  }
  return n;
}

std::vector<PartitionPtr> PartitionQueue::Snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<PartitionPtr> out;
  for (const auto& [type, tags] : by_type_) {
    for (const auto& [tag, fifo] : tags) {
      out.insert(out.end(), fifo.begin(), fifo.end());
    }
  }
  return out;
}

std::vector<PartitionPtr> PartitionQueue::DrainAndClose() {
  std::lock_guard lock(mu_);
  closed_ = true;
  std::vector<PartitionPtr> out;
  for (auto& [type, tags] : by_type_) {
    for (auto& [tag, fifo] : tags) {
      for (auto& dp : fifo) {
        state_->NotePop(type);
        out.push_back(std::move(dp));
      }
      fifo.clear();
    }
  }
  by_type_.clear();
  return out;
}

void PartitionQueue::Reopen() {
  std::lock_guard lock(mu_);
  closed_ = false;
}

bool PartitionQueue::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

std::vector<PartitionPtr> PartitionQueue::ResidentSnapshot() const {
  std::lock_guard lock(mu_);
  std::vector<PartitionPtr> out;
  for (const auto& [type, tags] : by_type_) {
    for (const auto& [tag, fifo] : tags) {
      for (const auto& dp : fifo) {
        if (dp->resident() && !dp->pinned() && dp->PayloadBytes() > 0) {
          out.push_back(dp);
        }
      }
    }
  }
  return out;
}

}  // namespace itask::core
