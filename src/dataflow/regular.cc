#include "dataflow/regular.h"

#include <thread>

#include "common/logging.h"
#include "memsim/managed_heap.h"

namespace itask::dataflow {

RegularHarness::RegularHarness(cluster::Cluster& cluster) : cluster_(cluster) {
  for (int i = 0; i < cluster_.size(); ++i) {
    heap_base_.push_back(cluster_.node(i).heap().Stats());
    spill_base_.push_back(cluster_.node(i).spill().Stats());
  }
}

bool RegularHarness::RunStage(int threads, const std::function<void(int, int)>& body) {
  if (aborted()) {
    return false;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(cluster_.size() * threads));
  for (int node = 0; node < cluster_.size(); ++node) {
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([this, &body, node, t] {
        try {
          body(node, t);
        } catch (const memsim::OutOfMemoryError& e) {
          if (!ome_.exchange(true)) {
            LOG_INFO() << "regular job crashed with OME on node " << node << ": " << e.what();
          }
        }
      });
    }
  }
  for (auto& thread : pool) {
    thread.join();
  }
  return !aborted();
}

common::RunMetrics RegularHarness::Finish() {
  common::RunMetrics m;
  m.wall_ms = watch_.ElapsedMs();
  m.out_of_memory = aborted();
  for (int i = 0; i < cluster_.size(); ++i) {
    const memsim::HeapStats& heap_base = heap_base_[static_cast<std::size_t>(i)];
    const serde::SpillStats& spill_base = spill_base_[static_cast<std::size_t>(i)];
    const memsim::HeapStats heap = cluster_.node(i).heap().Stats();
    common::RunMetrics node;
    node.gc_ms = static_cast<double>(heap.total_gc_pause_ns - heap_base.total_gc_pause_ns) / 1e6;
    node.gc_count = heap.gc_count - heap_base.gc_count;
    node.lugc_count = heap.lugc_count - heap_base.lugc_count;
    node.peak_heap_bytes = heap.peak_used_bytes;
    const serde::SpillStats spill = cluster_.node(i).spill().Stats();
    node.spilled_bytes = spill.spilled_bytes - spill_base.spilled_bytes;
    node.loaded_bytes = spill.loaded_bytes - spill_base.loaded_bytes;
    m.Merge(node);
  }
  m.succeeded = !aborted();
  return m;
}

}  // namespace itask::dataflow
