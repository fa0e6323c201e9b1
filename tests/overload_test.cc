// Driver tests: closed-loop config validation, config lifetime and report
// accounting (retry jitter at zero backoff, zero-client clamp, abort-storm
// and fault-plan invariants), the arrival-process models, and the open-loop
// overload driver end to end (shedding, sojourn accounting, determinism,
// admit-stage attribution).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "obs/timeline.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "workload/arrival.h"
#include "workload/driver.h"
#include "workload/sharded_driver.h"
#include "workload/sharded_tatp.h"
#include "workload/tatp.h"

namespace bionicdb::workload {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineMode;
using sim::Simulator;
using sim::Task;

EngineConfig DoraConfig() {
  EngineConfig c = EngineConfig::Dora();
  c.num_partitions = 4;
  return c;
}

// --------------------------------------------------- config validation --

TEST(DriverConfigTest, ValidatedConfigClampsDegenerateValues) {
  DriverConfig cfg;
  cfg.clients = 0;
  cfg.max_retries = -3;
  cfg.retry_backoff_ns = -1;
  const DriverConfig v = ValidatedDriverConfig(cfg);
  EXPECT_EQ(v.clients, 1);
  EXPECT_EQ(v.max_retries, 0);
  EXPECT_EQ(v.retry_backoff_ns, 0);
  // Sane configs pass through untouched.
  DriverConfig ok;
  ok.clients = 7;
  EXPECT_EQ(ValidatedDriverConfig(ok).clients, 7);
}

// Regression: clients == 0 used to make RunWave spawn zero clients, so the
// wave completion never fired and the run hung forever (and the per-client
// share split divided by zero). The validated path clamps to one client.
TEST(DriverConfigTest, ZeroClientsRunsToCompletion) {
  Simulator sim;
  Engine engine(&sim, DoraConfig());
  TatpConfig wcfg;
  wcfg.subscribers = 100;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  DriverConfig dcfg;
  dcfg.clients = 0;  // would hang before validation existed
  dcfg.warmup_txns = 10;
  dcfg.measured_txns = 50;
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, dcfg, &report));
  sim.Run();
  EXPECT_EQ(report.submitted, 50u);
}

// ------------------------------------------------------ config lifetime --
//
// The drivers are lazy tasks: they first read their config inside
// sim.Run(), after the caller's full-expression has ended. A temporary
// config must be copied into the task, not referenced (the ASan build
// reports a reference as stack-use-after-scope).

DriverConfig SmallClosedLoop() {
  DriverConfig dcfg;
  dcfg.clients = 4;
  dcfg.warmup_txns = 10;
  dcfg.measured_txns = 50;
  return dcfg;
}

TEST(DriverConfigTest, ClosedLoopOwnsATemporaryConfig) {
  Simulator sim;
  Engine engine(&sim, DoraConfig());
  TatpConfig wcfg;
  wcfg.subscribers = 100;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, SmallClosedLoop(),
      &report));
  sim.Run();
  EXPECT_EQ(report.submitted, 50u);
}

TEST(DriverConfigTest, ShardedClosedLoopOwnsATemporaryConfig) {
  Simulator sim;
  shard::ClusterConfig cc;
  cc.num_shards = 2;
  cc.engine = DoraConfig();
  shard::Cluster cluster(&sim, cc);
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 100;
  wcfg.cross_shard_ratio = 0.2;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ShardedDriverReport report;
  sim.Spawn(RunShardedClosedLoop(
      &cluster, [&]() { return tatp.NextTransaction(); }, SmallClosedLoop(),
      &report));
  sim.Run();
  EXPECT_EQ(report.submitted(), 50u);
}

TEST(DriverConfigTest, OpenLoopOwnsATemporaryConfig) {
  Simulator sim;
  EngineConfig cfg = DoraConfig();
  cfg.admission.enabled = true;
  Engine engine(&sim, cfg);
  TatpConfig wcfg;
  wcfg.subscribers = 100;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  OpenLoopReport report;
  sim.Spawn(RunOpenLoop(
      &engine, [&]() { return tatp.NextTransaction(); },
      [] {
        OpenLoopConfig ocfg;
        ocfg.arrival.offered_tps = 50000;
        ocfg.warmup_ns = 200000;
        ocfg.measure_ns = 2000000;
        ocfg.service.clients = 4;
        return ocfg;
      }(),
      &report));
  sim.Run();
  // ~100 arrivals at 50k txn/s over 2 ms, all served at this load.
  EXPECT_GT(report.offered, 50u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_GE(report.completed, report.offered);
}

// ------------------------------------------------------ retry accounting --

/// All clients update the same subscriber row: guaranteed write-write
/// conflicts, so wait-die aborts (and therefore the retry path) fire.
DriverReport RunContendedStorm(int max_retries, SimTime backoff_ns,
                               uint64_t* commits_out) {
  Simulator sim;
  Engine engine(&sim, DoraConfig());
  TatpConfig wcfg;
  wcfg.subscribers = 10;
  TatpWorkload tatp(&engine, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());

  DriverConfig dcfg;
  dcfg.clients = 8;
  dcfg.warmup_txns = 0;
  dcfg.measured_txns = 200;
  dcfg.max_retries = max_retries;
  dcfg.retry_backoff_ns = backoff_ns;
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &engine, [&]() { return tatp.MakeUpdateSubscriberData(3); }, dcfg,
      &report));
  sim.Run();
  *commits_out = engine.metrics().commits;
  return report;
}

// Regression: retry_backoff_ns == 0 used to draw Rng::Uniform(0) for the
// jitter — a contract violation (n > 0) that tripped the DCHECK in debug
// builds on the first wait-die retry. Zero backoff now means an immediate
// retry with no jitter draw.
TEST(DriverReportTest, ZeroRetryBackoffRetriesImmediately) {
  uint64_t commits = 0;
  const DriverReport report =
      RunContendedStorm(/*max_retries=*/30, /*backoff_ns=*/0, &commits);
  EXPECT_EQ(report.submitted, 200u);
  // The storm must actually exercise the retry path for this to regress.
  EXPECT_GT(report.retries, 0u);
  EXPECT_EQ(commits, report.submitted - report.gave_up - report.failed);
}

// Satellite: accounting when the retry budget is exhausted. Every aborted
// attempt counts toward `retries` (including the final one), a transaction
// whose budget runs out lands in `gave_up` exactly once, and commits always
// reconcile: commits == submitted - gave_up - failed.
TEST(DriverReportTest, InvariantsWhenRetryBudgetExhausted) {
  uint64_t commits = 0;
  const DriverReport report =
      RunContendedStorm(/*max_retries=*/0, /*backoff_ns=*/100, &commits);
  EXPECT_EQ(report.submitted, 200u);
  EXPECT_GT(report.gave_up, 0u);  // zero budget: first abort gives up
  // With max_retries == 0 each gave-up txn had exactly one aborted attempt.
  EXPECT_GE(report.retries, report.gave_up);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(commits, report.submitted - report.gave_up - report.failed);
}

// Satellite: non-aborted failures (a dead log device via sim::FaultPlan)
// are counted in `failed`, never retried, and never conflated with
// wait-die `gave_up`.
TEST(DriverReportTest, FaultPlanFailuresCountedNotRetried) {
  Simulator sim;
  EngineConfig cfg = DoraConfig();
  cfg.fault_plan.WithErrorRate("ssd", 1.0);  // every log flush fails
  Engine engine(&sim, cfg);
  TatpConfig wcfg;
  wcfg.subscribers = 50;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  DriverConfig dcfg;
  dcfg.clients = 1;  // no contention: aborts impossible, only durability
  dcfg.warmup_txns = 0;
  dcfg.measured_txns = 30;
  dcfg.preheat = false;
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &engine, [&]() { return tatp.MakeUpdateLocation(tatp.SubNbr(7), 1); },
      dcfg, &report));
  sim.Run();

  EXPECT_EQ(report.submitted, 30u);
  EXPECT_EQ(report.failed, 30u);  // every write txn fails durability
  EXPECT_EQ(report.gave_up, 0u);
  EXPECT_EQ(report.retries, 0u);  // non-aborted statuses are not retried
  EXPECT_EQ(engine.metrics().commits,
            report.submitted - report.gave_up - report.failed);
}

// --------------------------------------------------------- arrival model --

TEST(ArrivalModelTest, PoissonMeanGapMatchesOfferedRate) {
  ArrivalConfig cfg;
  cfg.offered_tps = 1e6;  // mean gap 1000 ns
  ArrivalModel model(cfg);
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(model.NextGapNs(0));
  const double mean = sum / kDraws;
  EXPECT_GT(mean, 900.0);
  EXPECT_LT(mean, 1100.0);
}

TEST(ArrivalModelTest, ClampsDegenerateConfig) {
  ArrivalConfig cfg;
  cfg.offered_tps = 0;  // clamped to a positive rate
  cfg.population = 0;   // clamped to 1
  ArrivalModel model(cfg);
  EXPECT_GE(model.NextGapNs(0), 1);
  EXPECT_EQ(model.NextClient(), 0u);  // population 1: only client 0
}

TEST(ArrivalModelTest, SameSeedSameStream) {
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kBursty;
  ArrivalModel a(cfg);
  ArrivalModel b(cfg);
  SimTime now_a = 0, now_b = 0;
  for (int i = 0; i < 1000; ++i) {
    const SimTime ga = a.NextGapNs(now_a);
    const SimTime gb = b.NextGapNs(now_b);
    ASSERT_EQ(ga, gb);
    now_a += ga;
    now_b += gb;
    ASSERT_EQ(a.NextClient(), b.NextClient());
  }
}

TEST(ArrivalModelTest, DiurnalGapsStayPositiveThroughTrough) {
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kDiurnal;
  cfg.offered_tps = 1e6;
  cfg.diurnal_amplitude = 0.99;  // near-zero trough rate
  ArrivalModel model(cfg);
  SimTime now = 0;
  for (int i = 0; i < 5000; ++i) {
    const SimTime gap = model.NextGapNs(now);
    ASSERT_GE(gap, 1);
    now += gap;
  }
}

// ------------------------------------------------------------- open loop --

struct OpenLoopRun {
  OpenLoopReport report;
  uint64_t engine_commits = 0;
  int64_t admit_p99_ns = 0;  ///< Admit-stage p99 from the flight recorder.
};

OpenLoopRun RunOpenLoopOnce(EngineMode mode, ArrivalProcess process,
                            double offered_tps, size_t depth,
                            SimTime measure_ns = 5000000) {
  Simulator sim;
  EngineConfig cfg =
      mode == EngineMode::kBionic ? EngineConfig::Bionic() : DoraConfig();
  cfg.flight.enabled = true;
  cfg.admission.enabled = true;
  cfg.admission.depth = depth;
  Engine engine(&sim, cfg);
  TatpConfig wcfg;
  wcfg.subscribers = 500;
  TatpWorkload tatp(&engine, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());

  OpenLoopConfig ocfg;
  ocfg.arrival.process = process;
  ocfg.arrival.offered_tps = offered_tps;
  ocfg.warmup_ns = 1000000;
  ocfg.measure_ns = measure_ns;
  ocfg.service.clients = 16;
  ocfg.service.max_retries = 8;
  OpenLoopRun run;
  sim.Spawn(RunOpenLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, ocfg, &run.report));
  sim.Run();
  run.engine_commits = engine.metrics().commits;
  run.admit_p99_ns =
      engine.flight_recorder()->stage_hist(obs::Stage::kAdmit).Percentile(99);
  return run;
}

TEST(OpenLoopTest, LowLoadShedsNothing) {
  const OpenLoopRun run = RunOpenLoopOnce(
      EngineMode::kDora, ArrivalProcess::kPoisson, /*offered_tps=*/50000,
      /*depth=*/256);
  EXPECT_GT(run.report.offered, 100u);
  EXPECT_EQ(run.report.shed, 0u);
  EXPECT_GT(run.report.completed, 0u);
  EXPECT_GT(run.report.committed, 0u);
  EXPECT_EQ(run.report.sojourn_ns.count(), run.report.completed);
  EXPECT_EQ(run.report.admission.shed, 0u);
  // Engine-side admission accounting reconciles with the driver's view.
  EXPECT_EQ(run.report.admission.offered,
            run.report.admission.admitted + run.report.admission.shed);
}

TEST(OpenLoopTest, OverloadShedsAndStaysBounded) {
  const OpenLoopRun run = RunOpenLoopOnce(
      EngineMode::kDora, ArrivalProcess::kPoisson, /*offered_tps=*/2e7,
      /*depth=*/64, /*measure_ns=*/2000000);
  EXPECT_GT(run.report.shed, 0u);
  EXPECT_GT(run.report.shed_rate(), 0.5);  // 10x capacity: mostly shed
  EXPECT_GT(run.report.committed, 0u);     // but goodput never collapses
  // Memory stayed bounded: the queue never grew past its depth.
  EXPECT_LE(run.report.admission.max_depth, 64u);
  EXPECT_EQ(run.report.admission.offered,
            run.report.admission.admitted + run.report.admission.shed);
}

// Queue wait is charged to the timeline's admit stage: under overload the
// admit-stage p99 must dwarf the low-load one (where the queue is empty).
TEST(OpenLoopTest, QueueWaitChargedToAdmitStage) {
  const OpenLoopRun calm = RunOpenLoopOnce(
      EngineMode::kDora, ArrivalProcess::kPoisson, 50000, 256);
  const OpenLoopRun storm = RunOpenLoopOnce(
      EngineMode::kDora, ArrivalProcess::kPoisson, 2e7, 256, 2000000);
  EXPECT_GT(storm.admit_p99_ns, calm.admit_p99_ns);
  EXPECT_GT(storm.admit_p99_ns, 10000);  // queue wait, not epsilon
  // And the sojourn histogram reflects it end to end.
  EXPECT_GT(storm.report.sojourn_ns.Percentile(99),
            calm.report.sojourn_ns.Percentile(99));
}

TEST(OpenLoopTest, DeterministicAcrossRuns) {
  const OpenLoopRun a = RunOpenLoopOnce(
      EngineMode::kDora, ArrivalProcess::kBursty, 3e6, 128, 3000000);
  const OpenLoopRun b = RunOpenLoopOnce(
      EngineMode::kDora, ArrivalProcess::kBursty, 3e6, 128, 3000000);
  const auto key = [](const OpenLoopRun& r) {
    return std::make_tuple(r.report.offered, r.report.shed,
                           r.report.completed, r.report.committed,
                           r.report.gave_up, r.report.failed,
                           r.report.retries, r.report.sojourn_ns.count(),
                           r.report.sojourn_ns.Percentile(99),
                           r.engine_commits, r.admit_p99_ns);
  };
  EXPECT_EQ(key(a), key(b));
}

TEST(OpenLoopTest, BionicModeRunsThroughSaturation) {
  const OpenLoopRun run = RunOpenLoopOnce(
      EngineMode::kBionic, ArrivalProcess::kPoisson, 2e7, 64, 2000000);
  EXPECT_GT(run.report.committed, 0u);
  EXPECT_GT(run.report.shed, 0u);
}

TEST(OpenLoopTest, DiurnalProcessSmoke) {
  const OpenLoopRun run = RunOpenLoopOnce(
      EngineMode::kDora, ArrivalProcess::kDiurnal, 500000, 256);
  EXPECT_GT(run.report.completed, 0u);
  EXPECT_GT(run.report.committed, 0u);
}

// Deadline shedding: under deep FIFO overload every queued entry ages
// past a short SLO before a server reaches it; the queue must discard
// stale entries at claim time (deadline_shed), and the requests that DO
// get served must be fresh — their sojourn bounded near the deadline
// instead of the full-queue FIFO wait.
TEST(OpenLoopTest, DeadlineSheddingDiscardsStaleServesFresh) {
  const auto run = [](SimTime deadline_ns) {
    Simulator sim;
    EngineConfig cfg = DoraConfig();
    cfg.admission.enabled = true;
    cfg.admission.depth = 256;
    cfg.admission.deadline_ns = deadline_ns;
    Engine engine(&sim, cfg);
    TatpConfig wcfg;
    wcfg.subscribers = 200;
    TatpWorkload tatp(&engine, wcfg);
    BIONICDB_CHECK(tatp.Load().ok());

    OpenLoopConfig ocfg;
    ocfg.arrival.offered_tps = 2e7;  // ~10x capacity
    ocfg.warmup_ns = 500000;
    ocfg.measure_ns = 2000000;
    ocfg.service.clients = 8;
    OpenLoopReport report;
    sim.Spawn(RunOpenLoop(
        &engine, [&]() { return tatp.NextTransaction(); }, ocfg, &report));
    sim.Run();
    return report;
  };

  const OpenLoopReport fifo = run(/*deadline_ns=*/0);
  const OpenLoopReport slo = run(/*deadline_ns=*/100000);  // 100 us SLO

  // The deadline actually fired, and only when configured.
  EXPECT_EQ(fifo.admission.deadline_shed, 0u);
  EXPECT_GT(slo.admission.deadline_shed, 0u);
  // Goodput survives: shedding stale work is not shedding all work.
  EXPECT_GT(slo.committed, 0u);
  // Served requests are fresh: sojourn p99 collapses versus the
  // plain-FIFO full-queue wait (queue wait alone is depth/service_rate,
  // far above the 100 us deadline).
  EXPECT_LT(slo.sojourn_ns.Percentile(99), fifo.sojourn_ns.Percentile(99));
  // Accounting stays closed: everything offered is admitted or shed.
  EXPECT_EQ(slo.admission.offered,
            slo.admission.admitted + slo.admission.shed);
}

TEST(OpenLoopTest, LifoAndDropOldestServeFresh) {
  Simulator sim;
  EngineConfig cfg = DoraConfig();
  cfg.admission.enabled = true;
  cfg.admission.depth = 32;
  cfg.admission.discipline = engine::AdmissionDiscipline::kLifo;
  cfg.admission.shed = engine::ShedPolicy::kDropOldest;
  Engine engine(&sim, cfg);
  TatpConfig wcfg;
  wcfg.subscribers = 200;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  OpenLoopConfig ocfg;
  ocfg.arrival.offered_tps = 2e7;  // deep overload
  ocfg.warmup_ns = 500000;
  ocfg.measure_ns = 2000000;
  ocfg.service.clients = 8;
  OpenLoopReport report;
  sim.Spawn(RunOpenLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, ocfg, &report));
  sim.Run();

  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.committed, 0u);
  // LIFO + drop-oldest: served requests are fresh, so the sojourn p99 of
  // the SERVED set stays near service time even in deep overload — far
  // below what a FIFO full-queue wait would be.
  EXPECT_LT(report.sojourn_ns.Percentile(99), 2000000);
}

}  // namespace
}  // namespace bionicdb::workload
