// Node-failure recovery tests (DESIGN.md §11): heartbeat detection, lineage
// re-execution, shuffle redelivery, graceful OOM degradation, and the
// exactly-once dedup audit. The end-to-end tests assert the strongest
// property the subsystem offers: a job that loses a node mid-flight produces
// the *identical* result fingerprint as a fault-free run, with zero
// duplicates observed by the ledger's dedup counter.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "apps/hyracks_apps.h"
#include "cluster/failure_model.h"
#include "itask/membership.h"
#include "itask/recovery.h"
#include "itask/typed_partition.h"

namespace itask::apps {
namespace {

cluster::Cluster MakeCluster(std::uint64_t heap_bytes, int nodes = 4) {
  cluster::ClusterConfig cc;
  cc.num_nodes = nodes;
  cc.heap.capacity_bytes = heap_bytes;
  cc.heap.real_pauses = false;
  return cluster::Cluster(cc);
}

AppConfig FtConfig() {
  AppConfig config;
  config.dataset_bytes = 512 << 10;
  config.tpch_scale = 0.2;
  config.threads = 4;
  config.max_workers = 4;
  config.granularity_bytes = 8 << 10;
  config.fault_tolerance = true;
  return config;
}

// Shrinks the failure-detector timeouts so a kill is declared dead in tens of
// milliseconds instead of the production default.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("ITASK_HEARTBEAT_MS", "1", 1);
    setenv("ITASK_SUSPECT_TIMEOUT_MS", "25", 1);
  }
  void TearDown() override {
    unsetenv("ITASK_HEARTBEAT_MS");
    unsetenv("ITASK_SUSPECT_TIMEOUT_MS");
  }
};

AppResult RunFt(const char* app, const AppConfig& config,
                cluster::FailureModel* model = nullptr) {
  auto cluster = MakeCluster(48 << 20, 4);
  AppConfig cfg = config;
  cfg.failure_model = model;
  return RunHyracksApp(app, cluster, cfg, Mode::kITask);
}

// ---- Fault-free equivalence: FT routing must not change results ----

TEST_F(RecoveryTest, FaultFreeFtMatchesNonFt) {
  for (const char* app : {"WC", "HS", "HJ"}) {
    AppConfig base = FtConfig();
    base.fault_tolerance = false;
    const AppResult plain = RunFt(app, base);
    ASSERT_TRUE(plain.metrics.succeeded) << app;
    ASSERT_GT(plain.records, 0u) << app;

    const AppResult ft = RunFt(app, FtConfig());
    ASSERT_TRUE(ft.metrics.succeeded) << app;
    EXPECT_EQ(ft.checksum, plain.checksum) << app;
    EXPECT_EQ(ft.records, plain.records) << app;
    EXPECT_EQ(ft.metrics.nodes_failed, 0u) << app;
    EXPECT_EQ(ft.metrics.splits_reexecuted, 0u) << app;
    EXPECT_EQ(ft.metrics.duplicate_tuples_dropped, 0u) << app;
  }
}

// ---- Tentpole: killing any single node preserves the fingerprint ----

class KillNodeTest : public RecoveryTest,
                     public ::testing::WithParamInterface<const char*> {};

TEST_P(KillNodeTest, KilledNodeRecoversWithIdenticalFingerprint) {
  const char* app = GetParam();
  const AppResult reference = RunFt(app, FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);
  ASSERT_GT(reference.records, 0u);

  for (int victim : {0, 1, 3}) {
    cluster::FailureModel model;
    // Kill at a progress point, not a wall-clock guess: a fast app (HJ) can
    // otherwise finish the victim's share before the kill lands.
    model.ScheduleKill(victim, /*at_ms=*/0.0, /*after_commits=*/1);
    const AppResult faulted = RunFt(app, FtConfig(), &model);
    ASSERT_TRUE(faulted.metrics.succeeded)
        << app << " kill node " << victim << ": " << faulted.metrics.Summary();
    EXPECT_EQ(faulted.checksum, reference.checksum) << app << " kill node " << victim;
    EXPECT_EQ(faulted.records, reference.records) << app << " kill node " << victim;
    // The dedup audit counter: exactly-once delivery held.
    EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u)
        << app << " kill node " << victim;
    EXPECT_GE(faulted.metrics.nodes_failed, 1u) << app << " kill node " << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, KillNodeTest, ::testing::Values("WC", "HS", "HJ"));

// ---- The same kill on heaps small enough to interrupt and spill ----

class PressuredKillNodeTest : public RecoveryTest,
                              public ::testing::WithParamInterface<const char*> {};

TEST_P(PressuredKillNodeTest, KilledNodeUnderPressureRecoversWithIdenticalFingerprint) {
  const char* app = GetParam();
  const AppResult reference = RunFt(app, FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);
  ASSERT_GT(reference.records, 0u);

  // 256 KB heaps against 512 KB of input: every node interrupts (mostly on
  // OMEs) and spills, and the survivors re-execute the victim's splits on
  // heaps that are already full.
  cluster::FailureModel model;
  model.ScheduleKill(/*node=*/1, /*at_ms=*/0.0, /*after_commits=*/1);
  auto cluster = MakeCluster(256 << 10, 4);
  AppConfig config = FtConfig();
  config.failure_model = &model;
  const AppResult faulted = RunHyracksApp(app, cluster, config, Mode::kITask);
  ASSERT_TRUE(faulted.metrics.succeeded) << app << ": " << faulted.metrics.Summary();
  // The heaps really were pressured: the scale loops were interrupted.
  EXPECT_GE(faulted.metrics.interrupts + faulted.metrics.ome_interrupts, 1u) << app;
  EXPECT_EQ(faulted.checksum, reference.checksum) << app;
  EXPECT_EQ(faulted.records, reference.records) << app;
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u) << app;
  EXPECT_GE(faulted.metrics.nodes_failed, 1u) << app;
}

INSTANTIATE_TEST_SUITE_P(Apps, PressuredKillNodeTest, ::testing::Values("WC", "HS"));

// ---- Graceful degradation: escaped OME demotes to draining ----

TEST_F(RecoveryTest, OomPoisonedNodeDrainsAndJobCompletes) {
  const AppResult reference = RunFt("WC", FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);

  cluster::FailureModel model;
  model.SchedulePoison(2, 1.0);
  const AppResult faulted = RunFt("WC", FtConfig(), &model);
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  // The poisoned node left the serving set one way or the other: demoted to
  // draining by the escaped-OME path, or declared dead if its monitor died.
  EXPECT_GE(faulted.metrics.nodes_draining + faulted.metrics.nodes_failed, 1u);
}

// ---- Zombie: a hung node is declared dead; its late work is fenced ----

TEST_F(RecoveryTest, HangedNodeIsDetectedAndFenced) {
  const AppResult reference = RunFt("WC", FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);

  cluster::FailureModel model;
  // Age the zombie's last beat past the dead timeout so detection fires on
  // the next poll tick deterministically — without this, a fast job completes
  // before the wall-clock silence accumulates and nodes_failed stays 0.
  model.ScheduleHang(1, 2.0, /*silence_age_ms=*/10000.0);
  const AppResult faulted = RunFt("WC", FtConfig(), &model);
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.nodes_failed, 1u);
}

// ---- Disconnects: transient cuts must not be conflated with death ----

TEST_F(RecoveryTest, HealedDisconnectCausesNoReexecution) {
  // Grace far past this fixture's dead timeout: only an unhealed cut dies.
  setenv("ITASK_DISCONNECT_GRACE_MS", "60000", 1);
  const AppResult reference = RunFt("WC", FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);

  cluster::FailureModel model;
  model.ScheduleDisconnect(1, 2.0);
  model.ScheduleHeal(1, 12.0);
  const AppResult faulted = RunFt("WC", FtConfig(), &model);
  unsetenv("ITASK_DISCONNECT_GRACE_MS");
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  // The whole point of kDisconnected: a cut that heals re-executes nothing
  // and kills nobody.
  EXPECT_EQ(faulted.metrics.splits_reexecuted, 0u);
  EXPECT_EQ(faulted.metrics.nodes_failed, 0u);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.partitions_healed, 1u);
}

TEST_F(RecoveryTest, UnhealedDisconnectExpiresGraceAndPromotesToDead) {
  // Tight grace so the expiry fires well inside the job.
  setenv("ITASK_DISCONNECT_GRACE_MS", "40", 1);
  const AppResult reference = RunFt("WC", FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);

  cluster::FailureModel model;
  // Never heals; age the beat past the grace so expiry doesn't race a fast
  // job (same determinism trick as HangedNodeIsDetectedAndFenced).
  model.ScheduleDisconnect(2, 2.0, /*silence_age_ms=*/10000.0);
  const AppResult faulted = RunFt("WC", FtConfig(), &model);
  unsetenv("ITASK_DISCONNECT_GRACE_MS");
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.nodes_failed, 1u);  // Grace expired -> dead.
  EXPECT_EQ(faulted.metrics.partitions_healed, 0u);
}

}  // namespace
}  // namespace itask::apps

// ---- Membership unit tests (successor remapping) ----

namespace itask::core {
namespace {

TEST(MembershipTest, EffectiveOwnerMovesOnlyTheDeadNodesKeys) {
  Membership m(4);
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(m.EffectiveOwner(h), h);
  }
  m.SetState(2, NodeLiveness::kDead);
  // Only the dead node's range moves — to its successor.
  EXPECT_EQ(m.EffectiveOwner(0), 0);
  EXPECT_EQ(m.EffectiveOwner(1), 1);
  EXPECT_EQ(m.EffectiveOwner(2), 3);
  EXPECT_EQ(m.EffectiveOwner(3), 3);
  // A second death walks past both, wrapping around.
  m.SetState(3, NodeLiveness::kDead);
  EXPECT_EQ(m.EffectiveOwner(2), 0);
  EXPECT_EQ(m.EffectiveOwner(3), 0);
  EXPECT_EQ(m.EffectiveOwner(0), 0);
  EXPECT_EQ(m.EffectiveOwner(1), 1);
  EXPECT_EQ(m.ServingCount(), 2);
}

TEST(MembershipTest, DisconnectedNodeKeepsServingAndHealNeedsAFreshBeat) {
  Membership m(3);
  m.NoteDisconnected(1);
  EXPECT_EQ(m.state(1), NodeLiveness::kDisconnected);
  // Mid-partition the node still owns its key range — remapping it would
  // redeliver its shuffle data even though it comes back intact.
  EXPECT_TRUE(m.Serving(1));
  EXPECT_EQ(m.EffectiveOwner(1), 1);
  EXPECT_EQ(m.ServingCount(), 3);
  // The pre-cut beat (stamped at construction) must not read as a heal:
  // only a beat that *postdates* the disconnect mark counts.
  EXPECT_FALSE(m.BeatSinceDisconnect(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  m.Beat(1);
  EXPECT_TRUE(m.BeatSinceDisconnect(1));
}

TEST(MembershipTest, SuppressedBeatsNeverReadAsAHeal) {
  Membership m(2);
  m.SuppressBeats(0, true);
  m.NoteDisconnected(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  m.Beat(0);  // Dropped: the link is down.
  EXPECT_FALSE(m.BeatSinceDisconnect(0));
  m.SuppressBeats(0, false);
  m.Beat(0);
  EXPECT_TRUE(m.BeatSinceDisconnect(0));
}

TEST(MembershipTest, DrainingStopsServingButDemotionNeedsSurvivors) {
  Membership m(2);
  EXPECT_TRUE(m.TryDemoteToDraining(0));
  EXPECT_FALSE(m.Serving(0));
  EXPECT_EQ(m.EffectiveOwner(0), 1);
  // The last serving node may not drain — someone must finish the job.
  EXPECT_FALSE(m.TryDemoteToDraining(1));
  EXPECT_TRUE(m.Serving(1));
}

// ---- RecoveryContext unit tests: ledger fencing and dedup ----

struct U64Traits {
  using Tuple = std::uint64_t;
  static std::uint64_t SizeOf(const Tuple&) { return 16; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteVarint(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadVarint(); }
};
using U64Partition = VectorPartition<U64Traits>;

memsim::HeapConfig FastHeap() {
  memsim::HeapConfig config;
  config.capacity_bytes = 16 << 20;
  config.real_pauses = false;
  return config;
}

class LedgerTest : public ::testing::Test {
 protected:
  LedgerTest()
      : heap0_(FastHeap()),
        heap1_(FastHeap()),
        spill_(std::filesystem::temp_directory_path(), "recovery-ledger"),
        rec_(RecoveryConfig{}, 2) {
    type_ = TypeIds::Get("recovery.test.u64");
    rec_.RegisterFactory(type_, [this](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<U64Partition>(type_, heap, spill);
    });
    for (int n = 0; n < 2; ++n) {
      RecoveryNodeHooks hooks;
      hooks.heap = n == 0 ? &heap0_ : &heap1_;
      hooks.spill = &spill_;
      hooks.push = [this, n](PartitionPtr dp) { pushed_[n].push_back(std::move(dp)); };
      rec_.SetNodeHooks(n, std::move(hooks));
      rec_.SetNodeSink(n, [this, n](PartitionPtr dp) { sunk_[n].push_back(std::move(dp)); });
    }
  }

  std::shared_ptr<U64Partition> MakePartition(int node, Tag tag,
                                              std::initializer_list<std::uint64_t> vals) {
    auto p = std::make_shared<U64Partition>(type_, node == 0 ? &heap0_ : &heap1_, &spill_);
    p->set_tag(tag);
    for (std::uint64_t v : vals) {
      p->Append(v);
    }
    return p;
  }

  TypeId type_ = 0;
  memsim::ManagedHeap heap0_;
  memsim::ManagedHeap heap1_;
  serde::SpillManager spill_;
  RecoveryContext rec_;
  std::vector<PartitionPtr> pushed_[2];
  std::vector<PartitionPtr> sunk_[2];
};

TEST_F(LedgerTest, StagedEntriesDeliverOnceOnCommit) {
  auto split = MakePartition(0, kNoTag, {1, 2, 3});
  const std::int64_t id = rec_.RegisterSplit(*split, 0);
  EXPECT_FALSE(rec_.MergeSafe());  // Uncommitted split gates the merges.

  auto out = MakePartition(0, /*tag=*/1, {10, 20});
  out->set_origin(id, 0);
  ASSERT_TRUE(rec_.StageShuffle(/*producer=*/0, /*home=*/1, out));
  EXPECT_EQ(rec_.stats().entries_staged, 1u);
  ASSERT_TRUE(pushed_[1].empty());  // Staged, not delivered, until commit.

  rec_.CommitEpoch(/*producer=*/0, id, /*epoch=*/0);
  ASSERT_EQ(pushed_[1].size(), 1u);  // Delivered to the home node exactly once.
  EXPECT_TRUE(rec_.MergeSafe());
  EXPECT_EQ(rec_.stats().duplicates_dropped, 0u);

  // Owner completes the merge: staged sink chunks replay into the real sink
  // and the tag's ledger entries are released.
  auto chunk = MakePartition(1, /*tag=*/1, {30});
  ASSERT_TRUE(rec_.StageSinkChunk(1, chunk));
  ASSERT_TRUE(sunk_[1].empty());
  rec_.CommitSink(1, /*tag=*/1);
  ASSERT_EQ(sunk_[1].size(), 1u);
  EXPECT_TRUE(rec_.AllComplete());
}

TEST_F(LedgerTest, DeliveryDemotesAPoisonedOwner) {
  // A poisoned owner refuses every allocation. With no task of its own whose
  // OME could escape, only the delivery sees it: the delivery demotes it to
  // draining, and the entry lands on the successor instead of retrying.
  auto split = MakePartition(0, kNoTag, {1, 2, 3});
  const std::int64_t id = rec_.RegisterSplit(*split, 0);
  auto out = MakePartition(0, /*tag=*/1, {10, 20});
  out->set_origin(id, 0);
  ASSERT_TRUE(rec_.StageShuffle(/*producer=*/0, /*home=*/1, out));
  heap1_.Poison();
  obs::Tracer tracer;
  tracer.set_enabled(true);
  rec_.set_tracer(&tracer);
  rec_.CommitEpoch(/*producer=*/0, id, /*epoch=*/0);
  rec_.set_tracer(nullptr);
  EXPECT_EQ(rec_.membership().state(1), NodeLiveness::kDraining);
  EXPECT_TRUE(pushed_[1].empty());
  ASSERT_EQ(pushed_[0].size(), 1u);
  EXPECT_EQ(pushed_[0].front()->TupleCount(), 2u);
  int draining_events = 0;
  for (const obs::Event& e : tracer.Snapshot()) {
    if (e.kind == obs::EventKind::kNodeDraining) {
      EXPECT_EQ(e.node, 1);
      ++draining_events;
    }
  }
  EXPECT_EQ(draining_events, 1);
}

TEST_F(LedgerTest, DeadProducerIsFencedAndSplitReexecutes) {
  auto split = MakePartition(0, kNoTag, {1, 2, 3});
  const std::int64_t id = rec_.RegisterSplit(*split, 0);

  // Node 0 dies before committing: its stage attempts are rejected and the
  // split re-executes on the survivor under a bumped epoch.
  rec_.membership().SetState(0, NodeLiveness::kDead);
  auto out = MakePartition(0, /*tag=*/1, {10});
  out->set_origin(id, 0);
  EXPECT_FALSE(rec_.StageShuffle(0, 1, out));
  EXPECT_EQ(rec_.stats().fenced_rejects, 1u);

  rec_.OnNodeLost(0);
  ASSERT_EQ(pushed_[1].size(), 1u);  // The re-executed split, on node 1.
  EXPECT_EQ(pushed_[1][0]->origin_split(), id);
  EXPECT_EQ(pushed_[1][0]->origin_epoch(), 1u);
  EXPECT_EQ(rec_.stats().splits_reexecuted, 1u);

  // A zombie commit under the old epoch is stale; the new epoch commits.
  rec_.CommitEpoch(0, id, 0);
  EXPECT_EQ(rec_.stats().stale_commits, 1u);
  EXPECT_FALSE(rec_.MergeSafe());
  rec_.CommitEpoch(1, id, 1);
  EXPECT_TRUE(rec_.MergeSafe());
}

TEST_F(LedgerTest, OwnerDeathRedeliversCommittedEntriesWithoutDuplicates) {
  auto split = MakePartition(0, kNoTag, {1});
  const std::int64_t id = rec_.RegisterSplit(*split, 0);
  auto out = MakePartition(0, /*tag=*/1, {10, 20});
  out->set_origin(id, 0);
  ASSERT_TRUE(rec_.StageShuffle(0, 1, out));
  rec_.CommitEpoch(0, id, 0);
  ASSERT_EQ(pushed_[1].size(), 1u);

  // The owner dies after delivery but before sinking tag 1: the committed
  // entry re-delivers to the survivor — no producer re-execution needed.
  rec_.membership().SetState(1, NodeLiveness::kDead);
  rec_.OnNodeLost(1);
  ASSERT_EQ(pushed_[0].size(), 1u);
  EXPECT_EQ(rec_.stats().redeliveries, 1u);
  EXPECT_EQ(rec_.stats().splits_reexecuted, 0u);
  EXPECT_EQ(rec_.stats().duplicates_dropped, 0u);

  // Node 0 finishes the merge; a late redelivery to the sunk tag is refused.
  rec_.CommitSink(0, 1);
  EXPECT_TRUE(rec_.AllComplete());
}

TEST_F(LedgerTest, SunkTagRefusesLateChunks) {
  auto chunk = MakePartition(0, /*tag=*/7, {1});
  ASSERT_TRUE(rec_.StageSinkChunk(0, chunk));
  rec_.CommitSink(0, 7);
  ASSERT_EQ(sunk_[0].size(), 1u);
  auto late = MakePartition(0, /*tag=*/7, {2});
  EXPECT_FALSE(rec_.StageSinkChunk(0, late));
  EXPECT_EQ(sunk_[0].size(), 1u);
}

}  // namespace
}  // namespace itask::core

// ---- Satellite: ITASK_IO_FAIL_READ_P must reach the spill Load path ----

namespace itask::cluster {
namespace {

TEST(IoFailEnvTest, ReadFailureEnvInjectsOnLoadPath) {
  setenv("ITASK_IO_FAIL_READ_P", "1.0", 1);
  setenv("ITASK_IO_POOL", "0", 1);  // Synchronous I/O: failure surfaces inline.
  {
    ClusterConfig cc;
    cc.num_nodes = 1;
    cc.heap.real_pauses = false;
    Cluster cluster(cc);
    auto& spill = cluster.node(0).spill();
    common::ByteBuffer payload(std::vector<std::uint8_t>(1024, 0xab));
    const auto id = spill.Spill(payload);
    cluster.node(0).async_spill().Drain();
    EXPECT_THROW(spill.LoadAndRemove(id), std::runtime_error);
    EXPECT_GE(cluster.node(0).async_spill().Stats().injected_failures, 1u);
  }
  unsetenv("ITASK_IO_FAIL_READ_P");
  unsetenv("ITASK_IO_POOL");
}

}  // namespace
}  // namespace itask::cluster
