// Cross-mode equivalence tests: every application must produce the same
// result fingerprint in regular mode (pressure-free), ITask mode
// (pressure-free) and ITask mode under a heap small enough to force
// interrupts and spilling.
#include <gtest/gtest.h>

#include "apps/hadoop_problems.h"
#include "apps/hyracks_apps.h"

namespace itask::apps {
namespace {

cluster::Cluster MakeCluster(std::uint64_t heap_bytes, int nodes = 2) {
  cluster::ClusterConfig cc;
  cc.num_nodes = nodes;
  cc.heap.capacity_bytes = heap_bytes;
  cc.heap.real_pauses = false;
  return cluster::Cluster(cc);
}

AppConfig SmallConfig() {
  AppConfig config;
  config.dataset_bytes = 256 << 10;
  config.tpch_scale = 0.2;
  config.threads = 4;
  config.max_workers = 4;
  config.granularity_bytes = 16 << 10;
  return config;
}

class HyracksAppTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HyracksAppTest, ItaskMatchesRegularPressureFree) {
  const AppConfig config = SmallConfig();
  auto regular_cluster = MakeCluster(64 << 20);
  const AppResult regular = RunHyracksApp(GetParam(), regular_cluster, config, Mode::kRegular);
  ASSERT_TRUE(regular.metrics.succeeded) << regular.metrics.Summary();
  ASSERT_GT(regular.records, 0u);

  auto itask_cluster = MakeCluster(64 << 20);
  const AppResult itask = RunHyracksApp(GetParam(), itask_cluster, config, Mode::kITask);
  ASSERT_TRUE(itask.metrics.succeeded) << itask.metrics.Summary();
  EXPECT_EQ(itask.checksum, regular.checksum);
  EXPECT_EQ(itask.records, regular.records);
}

TEST_P(HyracksAppTest, ItaskSurvivesPressuredHeapWithSameResult) {
  const AppConfig config = SmallConfig();
  auto reference_cluster = MakeCluster(64 << 20);
  const AppResult reference =
      RunHyracksApp(GetParam(), reference_cluster, config, Mode::kITask);
  ASSERT_TRUE(reference.metrics.succeeded);

  // ~1.5MB per node vs a multi-MB working set: interrupts are guaranteed.
  auto pressured_cluster = MakeCluster(1536 << 10);
  const AppResult pressured =
      RunHyracksApp(GetParam(), pressured_cluster, config, Mode::kITask);
  ASSERT_TRUE(pressured.metrics.succeeded) << pressured.metrics.Summary();
  EXPECT_EQ(pressured.checksum, reference.checksum);
  EXPECT_EQ(pressured.records, reference.records);
}

INSTANTIATE_TEST_SUITE_P(AllApps, HyracksAppTest,
                         ::testing::Values("WC", "HS", "II", "HJ", "GR"));

TEST(NodeMetricsTest, ReusedClusterReportsEachJobsOwnCounters) {
  // Heaps and spill engines outlive a job, so the second job on one cluster
  // must report its own GCs and spills, not the node-lifetime totals.
  auto cluster = MakeCluster(1536 << 10);
  const auto totals = [&cluster] {
    std::pair<std::uint64_t, std::uint64_t> gcs_and_spilled{0, 0};
    for (int i = 0; i < cluster.size(); ++i) {
      gcs_and_spilled.first += cluster.node(i).heap().Stats().gc_count;
      gcs_and_spilled.second += cluster.node(i).spill().Stats().spilled_bytes;
    }
    return gcs_and_spilled;
  };
  const AppResult first = RunHyracksApp("WC", cluster, SmallConfig(), Mode::kITask);
  ASSERT_TRUE(first.metrics.succeeded) << first.metrics.Summary();
  const auto before = totals();
  ASSERT_GT(before.first, 0u);
  ASSERT_GT(before.second, 0u);

  const AppResult second = RunHyracksApp("WC", cluster, SmallConfig(), Mode::kITask);
  ASSERT_TRUE(second.metrics.succeeded) << second.metrics.Summary();
  const auto after = totals();
  EXPECT_EQ(second.metrics.gc_count, after.first - before.first);
  EXPECT_EQ(second.metrics.spilled_bytes, after.second - before.second);
  EXPECT_GT(second.metrics.spilled_bytes, 0u);
}

class HadoopProblemTest : public ::testing::TestWithParam<const char*> {};

HadoopProblemConfig SmallProblemConfig() {
  HadoopProblemConfig config;
  config.dataset_bytes = 128 << 10;
  config.threads = 4;
  config.max_workers = 4;
  config.granularity_bytes = 16 << 10;
  config.msa_table_bytes = 64 << 10;
  config.crp_amplification = 200;
  return config;
}

TEST_P(HadoopProblemTest, ItaskMatchesRegular) {
  const HadoopProblemConfig config = SmallProblemConfig();
  auto regular_cluster = MakeCluster(64 << 20, /*nodes=*/1);
  const AppResult regular = RunHadoopProblem(GetParam(), regular_cluster, config, Mode::kRegular);
  ASSERT_TRUE(regular.metrics.succeeded) << regular.metrics.Summary();
  ASSERT_GT(regular.records, 0u);

  auto itask_cluster = MakeCluster(64 << 20, /*nodes=*/1);
  const AppResult itask = RunHadoopProblem(GetParam(), itask_cluster, config, Mode::kITask);
  ASSERT_TRUE(itask.metrics.succeeded) << itask.metrics.Summary();
  EXPECT_EQ(itask.checksum, regular.checksum);
  EXPECT_EQ(itask.records, regular.records);
}

TEST_P(HadoopProblemTest, ItaskSurvivesPressure) {
  const HadoopProblemConfig config = SmallProblemConfig();
  auto reference_cluster = MakeCluster(64 << 20, /*nodes=*/1);
  const AppResult reference =
      RunHadoopProblem(GetParam(), reference_cluster, config, Mode::kITask);
  ASSERT_TRUE(reference.metrics.succeeded);

  // CRP's longest sentence alone needs ~2.6MB of lemmatizer temporaries and
  // WCM's final stripe aggregate is ~1.3MB — irreducible live footprints that
  // must fit (the paper's requirement that per-bucket results fit in memory).
  // The other problems get a 1MB heap.
  const std::string name = GetParam();
  const std::uint64_t heap = (name == "CRP" || name == "WCM") ? (4 << 20) : (1 << 20);
  auto pressured_cluster = MakeCluster(heap, /*nodes=*/1);
  const AppResult pressured =
      RunHadoopProblem(GetParam(), pressured_cluster, config, Mode::kITask);
  ASSERT_TRUE(pressured.metrics.succeeded) << pressured.metrics.Summary();
  EXPECT_EQ(pressured.checksum, reference.checksum);
  EXPECT_EQ(pressured.records, reference.records);
}

INSTANTIATE_TEST_SUITE_P(AllProblems, HadoopProblemTest,
                         ::testing::Values("MSA", "IMC", "IIB", "WCM", "CRP"));

TEST(RegularCrashTest, TinyHeapCrashesRegularButNotITask) {
  AppConfig config = SmallConfig();
  config.dataset_bytes = 2 << 20;
  config.threads = 8;        // The "default" (crashing) configuration.
  config.deadline_ms = 120'000;

  auto regular_cluster = MakeCluster(1 << 20);
  const AppResult regular = RunWordCount(regular_cluster, config, Mode::kRegular);
  EXPECT_FALSE(regular.metrics.succeeded);
  EXPECT_TRUE(regular.metrics.out_of_memory);

  auto itask_cluster = MakeCluster(1 << 20);
  const AppResult itask = RunWordCount(itask_cluster, config, Mode::kITask);
  EXPECT_TRUE(itask.metrics.succeeded) << itask.metrics.Summary();
  EXPECT_GT(itask.metrics.interrupts + itask.metrics.spilled_bytes, 0u);
}

}  // namespace
}  // namespace itask::apps
