// Fault injection: determinism of the injected fault stream, bounded
// retry/backoff on log-flush failures, degraded-mode metrics, crash-at-LSN
// durability freezing, and hardware-to-software fallback — all under real
// workload runs via the crash harness.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "workload/crash_harness.h"

namespace bionicdb {
namespace {

using engine::EngineMode;
using workload::CrashHarness;
using workload::CrashHarnessConfig;
using workload::CrashRunResult;
using workload::ShardLog;
using workload::TailFault;

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.

TEST(FaultInjectorTest, StreamsIndependentOfRegistrationAndInterleaving) {
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.WithErrorRate("ssd", 0.3).WithErrorRate("pcie", 0.3);

  sim::FaultInjector a(plan);
  const int a_ssd = a.RegisterResource("ssd");
  const int a_pcie = a.RegisterResource("pcie");
  sim::FaultInjector b(plan);
  const int b_pcie = b.RegisterResource("pcie");
  const int b_ssd = b.RegisterResource("ssd");

  // Register in opposite order and interleave ops differently: each
  // resource's fault sequence must depend only on its own op index.
  std::vector<bool> a_faults;
  std::vector<bool> b_faults;
  for (int i = 0; i < 200; ++i) a_faults.push_back(!a.OnOp(a_ssd).ok());
  for (int i = 0; i < 200; ++i) (void)a.OnOp(a_pcie);
  for (int i = 0; i < 200; ++i) {
    (void)b.OnOp(b_pcie);
    b_faults.push_back(!b.OnOp(b_ssd).ok());
  }
  EXPECT_EQ(a_faults, b_faults);
  EXPECT_EQ(a.resource_injected("ssd"), b.resource_injected("ssd"));
  EXPECT_GT(a.resource_injected("ssd"), 0u);
  EXPECT_GT(a.resource_injected("pcie"), 0u);
}

TEST(FaultInjectorTest, FailOnceFiresExactlyOnceAtItsOpIndex) {
  sim::FaultPlan plan;
  plan.WithFailOnce("ssd", 3);
  sim::FaultInjector inj(plan);
  const int h = inj.RegisterResource("ssd");
  std::vector<int> failed_at;
  for (int i = 0; i < 10; ++i) {
    if (!inj.OnOp(h).ok()) failed_at.push_back(i);
  }
  EXPECT_EQ(failed_at, std::vector<int>{3});
  EXPECT_EQ(inj.total_injected(), 1u);
  EXPECT_EQ(inj.total_ops(), 10u);
}

TEST(FaultInjectorTest, CrashMakesEveryOpFail) {
  sim::FaultInjector inj(sim::FaultPlan{});
  const int h = inj.RegisterResource("ssd");
  EXPECT_TRUE(inj.OnOp(h).ok());
  inj.TriggerCrash("test");
  EXPECT_TRUE(inj.crashed());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(inj.OnOp(h).IsIOError());
}

// ---------------------------------------------------------------------------
// Whole-run properties via the crash harness.

CrashHarnessConfig BaseConfig(EngineMode mode, uint64_t seed) {
  CrashHarnessConfig cfg;
  cfg.mode = mode;
  cfg.seed = seed;
  cfg.clients = 2;
  cfg.txns = 120;
  cfg.scale = 80;
  return cfg;
}

TEST(FaultInjectionTest, SameSeedYieldsIdenticalTraceAndRecoveryStats) {
  CrashHarnessConfig cfg = BaseConfig(EngineMode::kDora, 5);
  cfg.fault_plan.seed = 99;
  cfg.fault_plan.WithErrorRate("ssd", 0.02).WithFailOnce("ssd", 4);

  CrashHarness h1(cfg);
  CrashHarness h2(cfg);
  const CrashRunResult& r1 = h1.Run();
  const CrashRunResult& r2 = h2.Run();

  EXPECT_EQ(r1.end_time_ns, r2.end_time_ns);
  EXPECT_EQ(r1.events_processed, r2.events_processed);
  EXPECT_EQ(r1.shards[0].log, r2.shards[0].log);
  EXPECT_EQ(r1.shards[0].durable_lsn, r2.shards[0].durable_lsn);
  EXPECT_EQ(r1.commits, r2.commits);
  EXPECT_EQ(r1.aborts, r2.aborts);
  EXPECT_EQ(r1.faults_injected, r2.faults_injected);
  EXPECT_EQ(r1.shards[0].log_stats.flush_retries,
            r2.shards[0].log_stats.flush_retries);
  EXPECT_EQ(r1.shards[0].log_stats.flush_backoff_ns,
            r2.shards[0].log_stats.flush_backoff_ns);

  // Recovery at the same crash point reports identical stats.
  const size_t cut = r1.shards[0].log.size() / 2;
  wal::RecoveryStats s1;
  wal::RecoveryStats s2;
  EXPECT_EQ(h1.CheckCrashPoint({{cut}, TailFault::kCleanCut, 1}, &s1), "");
  EXPECT_EQ(h2.CheckCrashPoint({{cut}, TailFault::kCleanCut, 1}, &s2), "");
  EXPECT_EQ(s1.records_scanned, s2.records_scanned);
  EXPECT_EQ(s1.committed_txns, s2.committed_txns);
  EXPECT_EQ(s1.loser_txns, s2.loser_txns);
  EXPECT_EQ(s1.redo_applied, s2.redo_applied);
  EXPECT_EQ(s1.torn_tail.kind, s2.torn_tail.kind);
}

TEST(FaultInjectionTest, OneShotFlushFaultIsRetriedWithBackoff) {
  CrashHarnessConfig cfg = BaseConfig(EngineMode::kDora, 6);
  // The third transfer on the log SSD fails once; the bounded-retry flush
  // must absorb it with one backoff and lose nothing.
  cfg.fault_plan.WithFailOnce("ssd", 2);

  CrashHarness h(cfg);
  const CrashRunResult& r = h.Run();
  const ShardLog& log = r.shards[0];
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(log.log_stats.flush_errors, 1u);
  EXPECT_GE(log.log_stats.flush_retries, 1u);
  EXPECT_GT(log.log_stats.flush_backoff_ns, 0u);
  EXPECT_EQ(log.log_stats.flush_failures, 0u);
  EXPECT_EQ(r.durability_failures, 0u);
  EXPECT_GT(r.commits, 0u);
  // Everything still recovers exactly.
  EXPECT_EQ(h.CheckCrashPoint({{log.log.size()}, TailFault::kCleanCut, 1}),
            "");
}

TEST(FaultInjectionTest, DeadLogDeviceDegradesWithoutCrashing) {
  CrashHarnessConfig cfg = BaseConfig(EngineMode::kDora, 7);
  cfg.fault_plan.WithErrorRate("ssd", 1.0);

  CrashHarness h(cfg);
  const CrashRunResult& r = h.Run();
  const ShardLog& log = r.shards[0];
  // The first flush exhausts its retry budget, the error sticks, and every
  // write transaction fails durability — but the run completes.
  EXPECT_EQ(log.durable_lsn, 0u);
  EXPECT_GE(log.log_stats.flush_failures, 1u);
  EXPECT_GE(log.log_stats.flush_retries,
            static_cast<uint64_t>(wal::RetryPolicy{}.max_attempts - 1));
  EXPECT_GT(r.durability_failures, 0u);
  EXPECT_GT(r.end_time_ns, 0u);
  // Nothing durable means recovery reproduces the loaded state.
  EXPECT_EQ(h.CheckCrashPoint({{0}, TailFault::kCleanCut, 1}), "");
}

TEST(FaultInjectionTest, CrashAtLsnFreezesDurabilityAtConsistentPrefix) {
  CrashHarnessConfig cfg = BaseConfig(EngineMode::kDora, 8);
  cfg.fault_plan.crash_at_lsn = 6000;

  CrashHarness h(cfg);
  const CrashRunResult& r = h.Run();
  const ShardLog& log = r.shards[0];
  EXPECT_LE(log.durable_lsn, 6000u);
  EXPECT_GT(log.durable_lsn, 0u);
  // Writes continued past the crash.
  EXPECT_LT(log.durable_lsn, log.log.size());
  EXPECT_GT(r.durability_failures, 0u);
  // The frozen durable prefix recovers to exactly its oracle state.
  EXPECT_EQ(h.CheckCrashPoint({{static_cast<size_t>(log.durable_lsn)},
                               TailFault::kCleanCut,
                               1}),
            "");
}

TEST(FaultInjectionTest, HardwareProbeFaultsFallBackToSoftware) {
  CrashHarnessConfig cfg = BaseConfig(EngineMode::kBionic, 9);
  cfg.fault_plan.WithErrorRate("sg_dram", 0.05);

  CrashHarness h(cfg);
  const CrashRunResult& r = h.Run();
  EXPECT_GT(r.hw_fallbacks, 0u);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.commits, 0u);  // Degraded, still serving.
  EXPECT_EQ(
      h.CheckCrashPoint({{r.shards[0].log.size()}, TailFault::kCleanCut, 1}),
      "");
}

TEST(FaultInjectionTest, TpccRunsUnderFaultsAndRecovers) {
  CrashHarnessConfig cfg;
  cfg.mode = EngineMode::kConventional;
  cfg.seed = 10;
  cfg.use_tpcc = true;
  cfg.clients = 2;
  cfg.txns = 60;
  cfg.scale = 20;
  cfg.fault_plan.WithFailOnce("ssd", 1);

  CrashHarness h(cfg);
  const CrashRunResult& r = h.Run();
  EXPECT_GT(r.commits, 0u);
  const ShardLog& log = r.shards[0];
  EXPECT_EQ(log.log_stats.flush_failures, 0u);
  EXPECT_EQ(h.CheckCrashPoint({{log.log.size()}, TailFault::kCleanCut, 1}),
            "");
  EXPECT_EQ(
      h.CheckCrashPoint({{log.log.size() / 3}, TailFault::kZeroFill, 2}), "");
}

}  // namespace
}  // namespace bionicdb
