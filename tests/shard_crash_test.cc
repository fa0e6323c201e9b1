// Distributed crash-recovery property test: the crash harness on a
// multi-shard cluster samples consistent cluster-wide crash points (every
// shard's durable WAL prefix at one virtual instant) under a
// cross-shard-heavy TATP run, then proves that recovery at EVERY point reproduces the committed
// state on each shard and never splits a 2PC transaction — some shards
// committing a branch while others abort it.
//
// Both 2PC crash roles fall out of the cut sweep (see
// workload/crash_harness.h): cuts before the coordinator's decision
// record exercise presumed abort (prepared_aborted), cuts between the
// decision and a participant's branch commit exercise decision-driven
// redo (prepared_committed). The aggregated recovery stats must show
// both, or the sweep never actually crossed the interesting windows.
#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "wal/recovery.h"
#include "workload/crash_harness.h"

namespace bionicdb::workload {
namespace {

/// 3 shards, 60 subscribers, 40% cross-shard 2PC writes, 300 txns.
CrashHarnessConfig ShardedConfig() {
  CrashHarnessConfig cfg;
  cfg.num_shards = 3;
  cfg.scale = 60;
  cfg.cross_shard_ratio = 0.4;
  cfg.txns = 300;
  return cfg;
}

/// Every sampled consistent cut as a clean-cut crash point.
std::vector<CrashHarness::CrashPoint> SampledPoints(CrashHarness& harness) {
  std::vector<CrashHarness::CrashPoint> points;
  for (const ClusterCut& cut : harness.samples()) {
    points.push_back({cut.cuts, TailFault::kCleanCut, 0});
  }
  return points;
}

/// Checks every point; returns the first divergence ("" if none).
std::string FirstDivergence(CrashHarness& harness,
                            const std::vector<CrashHarness::CrashPoint>& points,
                            wal::RecoveryStats* agg) {
  const std::vector<std::string> diffs =
      harness.CheckCrashPoints(points, common::DefaultJobs(), agg);
  for (size_t i = 0; i < diffs.size(); ++i) {
    if (!diffs[i].empty()) {
      return "cut " + std::to_string(i) + "/" +
             std::to_string(diffs.size()) + ": " + diffs[i];
    }
  }
  return "";
}

TEST(ShardedCrashTest, EveryConsistentCutRecoversAtomically) {
  CrashHarness harness(ShardedConfig());
  ASSERT_GT(harness.Run().commits, 0u);
  ASSERT_GT(harness.Run().tpc_commits, 0u) << "no distributed commits ran";
  ASSERT_GT(harness.samples().size(), 10u) << "too few crash points sampled";

  wal::RecoveryStats agg;
  ASSERT_EQ(FirstDivergence(harness, SampledPoints(harness), &agg), "");

  // The sweep crossed both 2PC crash windows: coordinator crashes
  // (prepared branches presumed aborted) and participant crashes
  // (prepared branches committed from the surviving decision record).
  EXPECT_GT(agg.prepared_aborted, 0u)
      << "no cut landed between prepare and decision";
  EXPECT_GT(agg.prepared_committed, 0u)
      << "no cut landed between decision and branch commit";
  EXPECT_GT(agg.redo_applied, 0u);
}

/// Same sweep with fan-out disabled: crash windows inside the sequential
/// PR 9 protocol stay covered (it remains reachable as the ablation
/// baseline), and decision-record GC must be cut-safe there too.
TEST(ShardedCrashTest, SequentialProtocolCutsRecoverAtomically) {
  CrashHarnessConfig cfg = ShardedConfig();
  cfg.fanout = false;
  cfg.txns = 200;
  cfg.seed = 3;
  CrashHarness harness(cfg);
  ASSERT_GT(harness.Run().tpc_commits, 0u) << "no distributed commits ran";

  wal::RecoveryStats agg;
  ASSERT_EQ(FirstDivergence(harness, SampledPoints(harness), &agg), "");
  EXPECT_GT(agg.prepared_aborted + agg.prepared_committed, 0u);
  // GC fired during the run, and no cut ever held a forget without every
  // branch commit it implies (the check would have failed the oracle).
  EXPECT_GT(agg.decision_records + agg.forget_records, 0u);
}

TEST(ShardedCrashTest, SamplesAreConsistentAndMonotone) {
  CrashHarnessConfig cfg = ShardedConfig();
  cfg.txns = 120;
  cfg.seed = 7;
  CrashHarness harness(cfg);
  const auto& samples = harness.samples();
  ASSERT_GT(samples.size(), 1u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].time, samples[i - 1].time);
    ASSERT_EQ(samples[i].cuts.size(), samples[i - 1].cuts.size());
    // Durable prefixes only grow.
    for (size_t s = 0; s < samples[i].cuts.size(); ++s) {
      EXPECT_GE(samples[i].cuts[s], samples[i - 1].cuts[s]);
    }
  }
}

}  // namespace
}  // namespace bionicdb::workload
