#include "itask/task.h"

#include "itask/runtime.h"
#include "itask/task_graph.h"

namespace itask::core {

void TaskContext::Emit(PartitionPtr out) {
  out->set_origin(origin_split, origin_epoch);
  if (in_interrupt && spec_->is_merge) {
    reparked = true;
  }
  if (defer_pushes_ && runtime_->WouldQueueLocally(*spec_, *out)) {
    runtime_->CountEmitMetrics(*spec_, *out, in_interrupt);
    deferred_.push_back(std::move(out));
    return;
  }
  runtime_->Route(*spec_, std::move(out), in_interrupt);
}

void TaskContext::FlushDeferredPushes(std::vector<PartitionPtr> inputs) {
  defer_pushes_ = false;
  for (PartitionPtr& dp : inputs) {
    deferred_.push_back(std::move(dp));
  }
  runtime_->PushBackBatch(std::move(deferred_));
  deferred_.clear();
}

void TaskContext::EmitToSink(PartitionPtr out) { runtime_->SinkDirect(std::move(out)); }

void TaskContext::PushBack(PartitionPtr dp) { runtime_->PushBack(std::move(dp)); }

bool TaskContext::ShouldInterrupt() { return runtime_->ShouldInterrupt(worker_id_); }

bool TaskContext::NaiveRestartMode() const { return runtime_->config().naive_restart; }

void TaskContext::EnsureResident(const PartitionPtr& dp) {
  runtime_->partition_manager().EnsureResident(dp);
}

void TaskContext::SpillOwned(const PartitionPtr& dp) {
  runtime_->partition_manager().SpillDirect(dp);
}

void TaskContext::Prefetch(const PartitionPtr& dp) {
  dp->StartPrefetch(/*priority=*/0);
}

void TaskContext::CountTuple() { runtime_->CountTuple(worker_id_); }

void TaskContext::NoteProcessedInputReleased(std::uint64_t bytes) {
  runtime_->NoteProcessedInputReleased(bytes);
}

void TaskContext::NoteOmeInterrupt(const PartitionPtr& dp, std::size_t tuples_processed) {
  // Stamped first: the synchronous spill relief below is part of the
  // interrupt's latency.
  runtime_->StampOmeInterrupt(worker_id_);
  runtime_->NoteOmeInterrupt(dp, tuples_processed);
}

memsim::ManagedHeap* TaskContext::heap() const { return runtime_->services().heap; }

serde::SpillManager* TaskContext::spill() const { return runtime_->services().spill; }

int TaskContext::node_id() const { return runtime_->services().node_id; }

}  // namespace itask::core
