// Tests of the IRS policy machinery: scheduler victim rules, partition
// manager spill ordering and thrash control, slow-start growth, the
// coordinator deadline, and the policy-ablation modes.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/itask_job.h"
#include "itask/partition_manager.h"
#include "itask/typed_partition.h"

namespace itask::core {
namespace {

struct U64Traits {
  using Tuple = std::uint64_t;
  static std::uint64_t SizeOf(const Tuple&) { return 1024; }  // Chunky tuples.
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteVarint(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadVarint(); }
};
using U64Partition = VectorPartition<U64Traits>;

memsim::HeapConfig FastHeap(std::uint64_t capacity) {
  memsim::HeapConfig config;
  config.capacity_bytes = capacity;
  config.real_pauses = false;
  return config;
}

// A slow task whose Process blocks until released — for exercising scheduler
// state while tasks are mid-flight.
class SlowTask : public ITask<U64Partition> {
 public:
  explicit SlowTask(std::atomic<bool>* release, std::atomic<int>* started)
      : release_(release), started_(started) {}
  void Initialize(TaskContext&) override {}
  void Process(TaskContext& ctx, const std::uint64_t&) override {
    started_->fetch_add(1);
    while (!release_->load() && !ctx.ShouldInterrupt()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void Interrupt(TaskContext&) override {}
  void Cleanup(TaskContext&) override {}

 private:
  std::atomic<bool>* release_;
  std::atomic<int>* started_;
};

TEST(SchedulerTest, SlowStartGrowsParallelismGradually) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.capacity_bytes = 64 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  IrsConfig irs;
  irs.max_workers = 8;
  cluster::ItaskJob job(cl, irs);
  const TypeId in_t = TypeIds::Get("pol.slow_in");
  const TypeId out_t = TypeIds::Get("pol.slow_out");

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "slow";
    spec.input_type = in_t;
    spec.output_type = out_t;
    spec.factory = [&] { return std::make_unique<SlowTask>(&release, &started); };
    return spec;
  });

  std::thread releaser([&] {
    // Observe that work starts with ONE active task (slow start), then grows.
    while (started.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const int after_first = started.load();
    EXPECT_LE(after_first, 2);  // Slow start: not all 8 at once.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release.store(true);
  });

  const bool ok = job.Run([&] {
    for (int i = 0; i < 16; ++i) {
      auto dp = std::make_shared<U64Partition>(in_t, &cl.node(0).heap(), &cl.node(0).spill());
      dp->Append(1);
      dp->Spill();
      job.runtime(0).Push(std::move(dp));
    }
  });
  releaser.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(started.load(), 16);  // Every partition was processed.
}

TEST(CoordinatorTest, DeadlineAbortsStuckJob) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.capacity_bytes = 4 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  IrsConfig irs;
  irs.max_workers = 2;
  cluster::ItaskJob job(cl, irs);
  const TypeId in_t = TypeIds::Get("pol.stuck_in");

  std::atomic<bool> never{false};
  std::atomic<int> started{0};
  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "stuck";
    spec.input_type = in_t;
    spec.output_type = TypeIds::Get("pol.stuck_out");
    spec.factory = [&] { return std::make_unique<SlowTask>(&never, &started); };
    return spec;
  });

  common::Stopwatch watch;
  const bool ok = job.Run(
      [&] {
        auto dp = std::make_shared<U64Partition>(in_t, &cl.node(0).heap(), &cl.node(0).spill());
        dp->Append(1);
        job.runtime(0).Push(std::move(dp));
      },
      /*deadline_ms=*/300);
  EXPECT_FALSE(ok);
  EXPECT_LT(watch.ElapsedMs(), 5'000);
}

class PartitionManagerTest : public ::testing::Test {
 protected:
  PartitionManagerTest()
      : heap_(FastHeap(64 << 20)),
        spill_(std::filesystem::temp_directory_path(), "pmtest"),
        state_(std::make_shared<JobState>()),
        runtime_({0, "pmtest", &heap_, &spill_}, IrsConfig{}, state_) {}

  PartitionPtr MakeQueued(TypeId type, int tuples) {
    auto dp = std::make_shared<U64Partition>(type, &heap_, &spill_);
    for (int i = 0; i < tuples; ++i) {
      dp->Append(static_cast<std::uint64_t>(i));
    }
    runtime_.queue().Push(dp);
    return dp;
  }

  memsim::ManagedHeap heap_;
  serde::SpillManager spill_;
  std::shared_ptr<JobState> state_;
  IrsRuntime runtime_;
};

TEST_F(PartitionManagerTest, SpillStepFreesRequestedBytes) {
  const TypeId t = TypeIds::Get("pm.a");
  MakeQueued(t, 100);  // 100KB
  MakeQueued(t, 100);
  const std::uint64_t before = heap_.live_bytes();
  const std::uint64_t freed = runtime_.partition_manager().SpillStep(50 << 10);
  EXPECT_GE(freed, 50u << 10);
  EXPECT_LT(heap_.live_bytes(), before);
}

TEST_F(PartitionManagerTest, SpillSkipsPinnedPartitions) {
  const TypeId t = TypeIds::Get("pm.b");
  auto dp = MakeQueued(t, 10);
  auto popped = runtime_.queue().PopOne(t);
  ASSERT_EQ(popped.get(), dp.get());
  EXPECT_EQ(runtime_.partition_manager().SpillStep(1 << 20), 0u);
  EXPECT_TRUE(dp->resident());
}

TEST_F(PartitionManagerTest, SpillPrefersFarFromFinishLine) {
  // near_t feeds a task adjacent to the finish line; far_t one two hops away.
  const TypeId far_t = TypeIds::Get("pm.far");
  const TypeId mid_t = TypeIds::Get("pm.mid");
  const TypeId near_t = TypeIds::Get("pm.near");
  auto make_spec = [](const char* name, TypeId in, TypeId out) {
    TaskSpec spec;
    spec.name = name;
    spec.input_type = in;
    spec.output_type = out;
    spec.factory = [] { return std::unique_ptr<ITaskBase>(); };
    return spec;
  };
  runtime_.graph().Register(make_spec("far", far_t, mid_t));
  runtime_.graph().Register(make_spec("near", mid_t, near_t));
  runtime_.FinalizeGraph();

  auto far_dp = MakeQueued(far_t, 10);
  auto near_dp = MakeQueued(mid_t, 10);
  // Ask for just one partition's worth: the far one must be chosen.
  runtime_.partition_manager().SpillStep(5 << 10);
  EXPECT_FALSE(far_dp->resident());
  EXPECT_TRUE(near_dp->resident());
}

TEST_F(PartitionManagerTest, ThrashControlSkipsRecentlyLoaded) {
  const TypeId t = TypeIds::Get("pm.thrash");
  auto a = MakeQueued(t, 10);
  auto b = MakeQueued(t, 10);
  a->Spill();
  a->EnsureResident();  // Fresh load stamp on |a|.
  // b was never (re)loaded; its stamp is its construction time, also recent —
  // both are "recent", so the fallback spills the oldest-loaded first (b).
  runtime_.partition_manager().SpillStep(5 << 10);
  EXPECT_TRUE(a->resident());
  EXPECT_FALSE(b->resident());
}

TEST_F(PartitionManagerTest, ConcurrentSpillStepsWhilePartitionsReload) {
  // SpillStep runs from the monitor and from OME interrupts at once, and each
  // ranks the queue's resident partitions by payload size and load time
  // while other threads spill and reload them. A comparator that read those
  // live broke std::stable_sort's ordering contract and read past its
  // buffer (a heap-buffer-overflow under ASan, an intermittent SIGSEGV
  // without it); ranking reads each key once.
  const TypeId t = TypeIds::Get("pm.race");
  std::vector<PartitionPtr> parts;
  for (int i = 0; i < 256; ++i) {
    parts.push_back(MakeQueued(t, 1 + i % 7));
  }
  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    while (!stop.load()) {
      for (const PartitionPtr& dp : parts) {
        dp->EnsureResident();
      }
    }
  });
  std::vector<std::thread> spillers;
  for (int s = 0; s < 4; ++s) {
    spillers.emplace_back([this] {
      for (int i = 0; i < 2000; ++i) {
        runtime_.partition_manager().SpillStep(8 << 10);
      }
    });
  }
  for (std::thread& spiller : spillers) {
    spiller.join();
  }
  stop.store(true);
  reloader.join();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i]->EnsureResident();
    EXPECT_EQ(parts[i]->TupleCount(), 1 + i % 7);
  }
}

}  // namespace
}  // namespace itask::core
