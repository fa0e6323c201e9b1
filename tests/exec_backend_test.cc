// Differential tests: the threaded execution backend against the simulator
// as determinism oracle (docs/EXECUTION.md). The same workload stream on
// the same seed must produce the same per-transaction status codes and the
// same final table contents on both backends, for every engine mode; a
// concurrent threaded run must match a WAL-replay reconstruction; and the
// crash harness must never find an acknowledged commit missing from the
// durable log.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/threaded.h"
#include "index/codec.h"
#include "sim/simulator.h"
#include "wal/record.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::exec {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineMode;
using sim::Simulator;
using workload::TatpConfig;
using workload::TatpWorkload;
using workload::TpccConfig;
using workload::TpccWorkload;

EngineConfig ConfigFor(EngineMode mode) {
  switch (mode) {
    case EngineMode::kConventional:
      return EngineConfig::Conventional();
    case EngineMode::kDora: {
      EngineConfig c = EngineConfig::Dora();
      c.num_partitions = 4;
      return c;
    }
    case EngineMode::kBionic: {
      EngineConfig c = EngineConfig::Bionic();
      c.num_partitions = 4;
      return c;
    }
  }
  return EngineConfig::Dora();
}

/// Final state: per-table sorted (key, record) contents.
using TableDump = std::vector<std::pair<std::string, std::string>>;

std::vector<TableDump> DumpTables(Engine& engine) {
  std::vector<TableDump> dumps;
  for (uint32_t i = 0; i < engine.db().num_tables(); ++i) {
    dumps.push_back(engine.db().GetTable(i)->ScanAll());
  }
  return dumps;
}

struct SeqResult {
  std::vector<int> codes;  ///< Status code per transaction, in order.
  std::vector<TableDump> tables;
};

sim::Task<void> DriveSimTatp(Engine* eng, TatpWorkload* w, int n,
                             std::vector<int>* codes) {
  for (int i = 0; i < n; ++i) {
    uint64_t priority = 0;
    Status st = co_await eng->Execute(w->NextTransaction(), 0, &priority);
    codes->push_back(static_cast<int>(st.code()));
  }
  co_await eng->Shutdown();
}

SeqResult RunSimTatp(EngineMode mode, uint64_t seed, int n) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(mode));
  TatpConfig wcfg;
  wcfg.subscribers = 300;
  wcfg.seed = seed;
  TatpWorkload tatp(&engine, wcfg);
  EXPECT_TRUE(tatp.Load().ok());
  engine.Start();
  SeqResult r;
  sim.Spawn(DriveSimTatp(&engine, &tatp, n, &r.codes));
  sim.Run();
  r.tables = DumpTables(engine);
  return r;
}

SeqResult RunThreadedTatp(EngineMode mode, uint64_t seed, int n) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(mode));
  TatpConfig wcfg;
  wcfg.subscribers = 300;
  wcfg.seed = seed;
  TatpWorkload tatp(&engine, wcfg);
  EXPECT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 1;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  SeqResult r;
  for (int i = 0; i < n; ++i) {
    uint64_t priority = 0;
    Status st = backend.Execute(tatp.NextTransaction(), &priority);
    r.codes.push_back(static_cast<int>(st.code()));
  }
  backend.Shutdown();
  r.tables = DumpTables(engine);
  return r;
}

class BackendModeTest : public ::testing::TestWithParam<EngineMode> {};

// The determinism-oracle contract, sequentially: same seed, same workload
// stream -> identical status codes and identical final B+Tree contents on
// both backends. Three seeds per mode.
TEST_P(BackendModeTest, TatpSequentialMatchesSimulator) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SeqResult simulated = RunSimTatp(GetParam(), seed, 200);
    SeqResult threaded = RunThreadedTatp(GetParam(), seed, 200);
    EXPECT_EQ(simulated.codes, threaded.codes) << "seed " << seed;
    ASSERT_EQ(simulated.tables.size(), threaded.tables.size());
    for (size_t t = 0; t < simulated.tables.size(); ++t) {
      EXPECT_EQ(simulated.tables[t], threaded.tables[t])
          << "seed " << seed << " table " << t;
    }
  }
}

sim::Task<void> DriveSimTpcc(Engine* eng, TpccWorkload* w, int n,
                             std::vector<int>* codes) {
  for (int i = 0; i < n; ++i) {
    uint64_t priority = 0;
    Status st = co_await eng->Execute(w->NextTransaction(), 0, &priority);
    codes->push_back(static_cast<int>(st.code()));
  }
  co_await eng->Shutdown();
}

// TPC-C adds dynamic phases (StockLevel) and multi-phase read-write mixes.
TEST_P(BackendModeTest, TpccSequentialMatchesSimulator) {
  TpccConfig wcfg;
  wcfg.customers_per_district = 60;
  wcfg.items = 200;
  wcfg.initial_orders_per_district = 10;

  Simulator sim_a;
  Engine sim_engine(&sim_a, ConfigFor(GetParam()));
  TpccWorkload sim_w(&sim_engine, wcfg);
  ASSERT_TRUE(sim_w.Load().ok());
  sim_engine.Start();
  std::vector<int> sim_codes;
  sim_a.Spawn(DriveSimTpcc(&sim_engine, &sim_w, 120, &sim_codes));
  sim_a.Run();

  Simulator sim_b;
  Engine thr_engine(&sim_b, ConfigFor(GetParam()));
  TpccWorkload thr_w(&thr_engine, wcfg);
  ASSERT_TRUE(thr_w.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 1;
  ThreadedBackend backend(&thr_engine, bcfg);
  backend.Start();
  std::vector<int> thr_codes;
  for (int i = 0; i < 120; ++i) {
    uint64_t priority = 0;
    Status st = backend.Execute(thr_w.NextTransaction(), &priority);
    thr_codes.push_back(static_cast<int>(st.code()));
  }
  backend.Shutdown();

  EXPECT_EQ(sim_codes, thr_codes);
  std::vector<TableDump> a = DumpTables(sim_engine);
  std::vector<TableDump> b = DumpTables(thr_engine);
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t], b[t]) << "table " << t;
  }
}

// Concurrent runs are not deterministic, so the oracle shifts: replay the
// threaded backend's own WAL (redo of committed transactions, in LSN
// order) into a freshly loaded database and demand the same final state.
// Partition locks are held across commit durability, so log order agrees
// with the serialization order on every key.
TEST_P(BackendModeTest, TatpConcurrentMatchesWalReplay) {
  const uint64_t seed = 11;
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TatpConfig wcfg;
  wcfg.subscribers = 300;
  wcfg.seed = seed;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 5;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  ThreadedBackend::RunOptions options;
  options.clients = 4;
  options.warmup_txns = 0;
  options.measured_txns = 400;
  ThreadedBackend::RunReport report =
      backend.RunClosedLoop([&] { return tatp.NextTransaction(); }, options);
  backend.Shutdown();  // final flush: DurablePrefix() is the whole stream
  EXPECT_GT(report.committed, 0u);

  const std::string stream = backend.wal().DurablePrefix();
  auto parsed = wal::ParseLogStream(Slice(stream));
  ASSERT_TRUE(parsed.ok());

  std::set<uint64_t> committed;
  for (const wal::LogRecord& rec : *parsed) {
    if (rec.type == wal::RecordType::kCommit) committed.insert(rec.txn_id);
  }

  // Oracle: same seed, load only, then redo.
  Simulator oracle_sim;
  Engine oracle(&oracle_sim, ConfigFor(GetParam()));
  TatpWorkload oracle_w(&oracle, wcfg);
  ASSERT_TRUE(oracle_w.Load().ok());
  for (const wal::LogRecord& rec : *parsed) {
    if (committed.count(rec.txn_id) == 0) continue;
    engine::Table* table = oracle.db().GetTable(rec.table_id);
    switch (rec.type) {
      case wal::RecordType::kInsert:
      case wal::RecordType::kUpdate:
        ASSERT_TRUE(table->BasePut(rec.key, Slice(rec.redo)).ok());
        break;
      case wal::RecordType::kDelete:
        ASSERT_TRUE(table->BaseDelete(rec.key).ok());
        break;
      default:
        break;  // begin/commit/clr/abort/checkpoint carry no redo here
    }
  }

  std::vector<TableDump> live = DumpTables(engine);
  std::vector<TableDump> replayed = DumpTables(oracle);
  ASSERT_EQ(live.size(), replayed.size());
  for (size_t t = 0; t < live.size(); ++t) {
    EXPECT_EQ(live[t], replayed[t]) << "table " << t;
  }
}

// A fixed op sequence covering what TATP and TPC-C never run on threads:
// committed and aborted row writes (undo of a primary write and of a
// secondary-index entry), reads through every probe path, and the scan and
// maintenance ops (ScanCount, ScanProjection, BulkMerge, ReorganizeIndex,
// Checkpoint). Every result is recorded in order so both backends can be
// compared entry by entry.
struct OpLog {
  std::vector<std::string> entries;
  void Add(const std::string& what, const Status& st) {
    entries.push_back(what + " " + std::to_string(static_cast<int>(st.code())));
  }
  void Add(const std::string& what, const std::string& value) {
    entries.push_back(what + " = " + value);
  }
};

// Rows are an 8-byte little-endian value followed by padding, so updates
// can grow a row past its page slot.
std::string ValueRec(int64_t v, size_t pad) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v)) +
         std::string(pad, 'p');
}
int64_t ValueOf(Slice rec) {
  int64_t v;
  std::memcpy(&v, rec.data(), sizeof(v));
  return v;
}

std::string Key(uint64_t k) { return index::EncodeKeyU64(k); }

/// One single-step phase touching `key`. Phases run one after another, so
/// a transaction's steps execute in order on both backends. Step bodies are
/// coroutines so the keys and records they build outlive the awaited op.
Engine::Phase StepOn(engine::Table* t, uint64_t key, bool read_only,
                     std::function<sim::Task<Status>(Engine::ExecContext&)> fn) {
  Engine::TxnStep step;
  step.table = t;
  step.keys = {Key(key)};
  step.read_only = read_only;
  step.fn = std::move(fn);
  Engine::Phase phase;
  phase.push_back(std::move(step));
  return phase;
}

std::vector<Engine::TxnSpec> OpSequenceTxns(Engine* eng, engine::Table* t,
                                            OpLog* log) {
  std::vector<Engine::TxnSpec> txns;
  auto txn = [&txns](std::vector<Engine::Phase> phases) {
    Engine::TxnSpec spec;
    spec.phases = std::move(phases);
    txns.push_back(std::move(spec));
  };
  // Committed writes: a growing update, an insert with a secondary entry,
  // a delete, and an update that reuses a just-read before-image.
  txn({StepOn(t, 3, false,
              [eng, t](Engine::ExecContext& c) -> sim::Task<Status> {
                co_return co_await eng->Update(c, t, Key(3),
                                               ValueRec(300, 900));
              })});
  txn({StepOn(t, 1000, false,
              [eng, t](Engine::ExecContext& c) -> sim::Task<Status> {
                BIONICDB_CO_RETURN_NOT_OK(
                    co_await eng->Insert(c, t, Key(1000), ValueRec(7, 4)));
                co_return co_await eng->InsertSecondary(c, t, "by_val",
                                                        Key(7), Key(1000));
              })});
  txn({StepOn(t, 5, false,
              [eng, t](Engine::ExecContext& c) -> sim::Task<Status> {
                co_return co_await eng->Delete(c, t, Key(5));
              })});
  txn({StepOn(t, 8, false,
              [eng, t](Engine::ExecContext& c) -> sim::Task<Status> {
                auto old = co_await eng->ReadView(c, t, Key(8));
                if (!old.ok()) co_return old.status();
                co_return co_await eng->Update(c, t, Key(8), ValueRec(80, 2),
                                               &*old);
              })});
  // Aborted transactions: a duplicate insert after an update (the update
  // and a secondary entry are undone), a delete of an absent key.
  txn({StepOn(t, 10, false,
              [eng, t](Engine::ExecContext& c) -> sim::Task<Status> {
                BIONICDB_CO_RETURN_NOT_OK(
                    co_await eng->Update(c, t, Key(10), ValueRec(-1, 700)));
                co_return co_await eng->InsertSecondary(c, t, "by_val",
                                                        Key(99), Key(10));
              }),
       StepOn(t, 11, false,
              [eng, t](Engine::ExecContext& c) -> sim::Task<Status> {
                co_return co_await eng->Insert(c, t, Key(11), ValueRec(0, 0));
              })});
  txn({StepOn(t, 123456, false,
              [eng, t](Engine::ExecContext& c) -> sim::Task<Status> {
                co_return co_await eng->Delete(c, t, Key(123456));
              })});
  // Reads: point, batched, secondary probe and range, primary range.
  txn({StepOn(t, 10, true,
              [eng, t, log](Engine::ExecContext& c) -> sim::Task<Status> {
                auto r = co_await eng->Read(c, t, Key(10));
                log->Add("read 10", r.ok() ? std::to_string(ValueOf(*r)) +
                                                 "/" + std::to_string(r->size())
                                           : r.status().ToString());
                co_return r.status();
              }),
       StepOn(t, 5, true,
              [eng, t, log](Engine::ExecContext& c) -> sim::Task<Status> {
                const std::vector<std::string> keys = {Key(5)};
                auto r = co_await eng->MultiRead(c, t, keys);
                log->Add("multiread 5", r[0].status());
                co_return Status::OK();
              }),
       StepOn(t, 7, true,
              [eng, t, log](Engine::ExecContext& c) -> sim::Task<Status> {
                auto p = co_await eng->ProbeSecondary(c, t, "by_val", Key(7));
                log->Add("probe 7", p.ok() ? std::to_string(index::DecodeKeyU64(
                                                 Slice(*p)))
                                           : p.status().ToString());
                auto missing =
                    co_await eng->ProbeSecondary(c, t, "by_val", Key(99));
                log->Add("probe 99", missing.status());
                auto idx = co_await eng->RangeReadIndex(c, t, "by_val", Key(0),
                                                        Key(100), 0);
                log->Add("index range", std::to_string(idx.ok() ? idx->size()
                                                                : 999));
                auto rows = co_await eng->RangeRead(c, t, Key(0), Key(20), 12);
                if (!rows.ok()) co_return rows.status();
                std::string keys;
                for (auto& [k, v] : *rows) {
                  keys += std::to_string(index::DecodeKeyU64(Slice(k))) + ":" +
                          std::to_string(ValueOf(Slice(v))) + " ";
                }
                log->Add("range", keys);
                co_return Status::OK();
              })});
  return txns;
}

/// The scan and maintenance ops, called outside any transaction (as the
/// maintenance paths are). On threads nothing suspends, so the caller runs
/// this to completion inline.
sim::Task<void> OpSequenceMaintenance(Engine* eng, engine::Table* t,
                                      OpLog* log) {
  Engine::ExecContext ctx;
  ctx.engine = eng;
  auto odd = [](Slice rec) { return ValueOf(rec) % 2 != 0; };
  auto count = co_await eng->ScanCount(ctx, t, odd);
  log->Add("scan count", count.ok() ? std::to_string(*count)
                                    : count.status().ToString());
  auto agg = co_await eng->ScanProjection(ctx, t, "val",
                                          [](int64_t v) { return v > 20; });
  log->Add("projection", agg.ok() ? std::to_string(agg->matches) + "/" +
                                        std::to_string(agg->sum)
                                  : agg.status().ToString());
  log->Add("bulk merge", co_await eng->BulkMerge(ctx, t));
  auto merged = co_await eng->ScanProjection(ctx, t, "val");
  log->Add("projection after merge",
           merged.ok() ? std::to_string(merged->matches) + "/" +
                             std::to_string(merged->sum)
                       : merged.status().ToString());
  log->Add("reorganize", co_await eng->ReorganizeIndex(ctx, t));
  log->Add("checkpoint", co_await eng->Checkpoint(ctx));
  auto after = co_await eng->ScanCount(ctx, t, odd);
  log->Add("scan count after", after.ok() ? std::to_string(*after)
                                          : after.status().ToString());
}

engine::Table* LoadOpSequenceTable(Engine* eng) {
  engine::Table* t = eng->CreateTable("T");
  EXPECT_TRUE(t->AddSecondaryIndex("by_val").ok());
  for (uint64_t i = 0; i < 300; ++i) {
    EXPECT_TRUE(eng->LoadRow(t, Key(i),
                             ValueRec(static_cast<int64_t>(i), i % 40))
                    .ok());
  }
  eng->FinalizeLoad();
  EXPECT_TRUE(t->AddColumnarProjection("val", ValueOf).ok());
  return t;
}

EngineConfig OpSequenceConfig(EngineMode mode) {
  EngineConfig c = ConfigFor(mode);
  // Half the rows start outside the overlay: reads take the miss path.
  c.overlay_residency = 0.5;
  return c;
}

sim::Task<void> DriveSimOps(Engine* eng, engine::Table* t,
                            std::vector<Engine::TxnSpec> txns, OpLog* log) {
  for (Engine::TxnSpec& spec : txns) {
    log->Add("txn", co_await eng->Execute(std::move(spec)));
  }
  co_await OpSequenceMaintenance(eng, t, log);
  co_await eng->Shutdown();
}

TEST_P(BackendModeTest, OpSequenceMatchesSimulator) {
  Simulator sim_a;
  Engine sim_engine(&sim_a, OpSequenceConfig(GetParam()));
  engine::Table* sim_t = LoadOpSequenceTable(&sim_engine);
  sim_engine.Start();
  OpLog sim_log;
  sim_a.Spawn(DriveSimOps(&sim_engine, sim_t,
                          OpSequenceTxns(&sim_engine, sim_t, &sim_log),
                          &sim_log));
  sim_a.Run();

  Simulator sim_b;
  Engine thr_engine(&sim_b, OpSequenceConfig(GetParam()));
  engine::Table* thr_t = LoadOpSequenceTable(&thr_engine);
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 1;
  ThreadedBackend backend(&thr_engine, bcfg);
  backend.Start();
  OpLog thr_log;
  for (Engine::TxnSpec& spec :
       OpSequenceTxns(&thr_engine, thr_t, &thr_log)) {
    thr_log.Add("txn", backend.Execute(std::move(spec)));
  }
  sim::RunToCompletion(OpSequenceMaintenance(&thr_engine, thr_t, &thr_log));
  backend.Shutdown();
  // Both substrates run one transaction lifecycle through one log seam, so
  // the logs (commits, undo CLRs and aborts, the checkpoint) agree byte for
  // byte.
  EXPECT_EQ(sim_engine.log()->buffer(), backend.wal().DurablePrefix());

  // Sanity: the sequence did commit, abort, and reach the maintenance ops.
  ASSERT_EQ(sim_log.entries.size(), 20u);
  EXPECT_EQ(sim_log.entries[0], "txn 0");
  EXPECT_NE(sim_log.entries[4], "txn 0");
  EXPECT_EQ(sim_log.entries.back().rfind("scan count after = ", 0), 0u);
  ASSERT_EQ(sim_log.entries.size(), thr_log.entries.size());
  for (size_t i = 0; i < sim_log.entries.size(); ++i) {
    EXPECT_EQ(sim_log.entries[i], thr_log.entries[i]) << "entry " << i;
  }
  EXPECT_EQ(sim_t->ScanAll(), thr_t->ScanAll());
  EXPECT_EQ(sim_t->secondary("by_val")->size(),
            thr_t->secondary("by_val")->size());
}

// Two clients insert and delete the odd keys of a table loaded with the
// even ones, round after round, while three others point-read loaded rows
// through other partitions. The writes land in the leaves and pages the
// readers probe, so on threads a read that decodes its rid or takes its
// record view outside the table guard can see bytes a leaf shift or split
// moves, and TSan flags the race when the timing lines up.
TEST_P(BackendModeTest, PointReadsRaceInsertsAndDeletes) {
  constexpr uint64_t kLoaded = 128;
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr uint64_t kReadsEach = 10000;
  Simulator sim;
  Engine eng(&sim, OpSequenceConfig(GetParam()));
  engine::Table* t = eng.CreateTable("T");
  auto row = [](uint64_t k) {
    return ValueRec(static_cast<int64_t>(k), k % 40);
  };
  for (uint64_t i = 0; i < kLoaded; ++i) {
    ASSERT_TRUE(eng.LoadRow(t, Key(2 * i), row(2 * i)).ok());
  }
  eng.FinalizeLoad();
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 1;
  ThreadedBackend backend(&eng, bcfg);
  backend.Start();
  auto write_txn = [&](uint64_t k, bool insert) {
    Engine::TxnSpec spec;
    spec.phases.push_back(StepOn(
        t, k, false,
        [&eng, &row, t, k, insert](
            Engine::ExecContext& c) -> sim::Task<Status> {
          if (insert) co_return co_await eng.Insert(c, t, Key(k), row(k));
          co_return co_await eng.Delete(c, t, Key(k));
        }));
    return backend.Execute(std::move(spec));
  };
  std::atomic<int> readers_left{kReaders};
  std::atomic<uint64_t> failed_writes{0};
  std::atomic<uint64_t> bad_reads{0};
  std::atomic<uint64_t> rounds{0};
  std::vector<std::thread> clients;
  for (int w = 0; w < kWriters; ++w) {
    clients.emplace_back([&, w] {
      // Whole insert-then-delete rounds, so every odd key ends absent.
      while (readers_left.load() > 0) {
        for (bool insert : {true, false}) {
          for (uint64_t i = static_cast<uint64_t>(w); i < kLoaded;
               i += kWriters) {
            if (!write_txn(2 * i + 1, insert).ok()) ++failed_writes;
          }
        }
        ++rounds;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    clients.emplace_back([&, r] {
      for (uint64_t i = 0; i < kReadsEach; ++i) {
        const uint64_t k =
            2 * ((i * 7 + static_cast<uint64_t>(r) * 101) % kLoaded);
        Engine::TxnSpec spec;
        spec.phases.push_back(StepOn(
            t, k, true,
            [&eng, &row, &bad_reads, t, k](
                Engine::ExecContext& c) -> sim::Task<Status> {
              auto got = co_await eng.Read(c, t, Key(k));
              if (!got.ok() || *got != row(k)) ++bad_reads;
              co_return Status::OK();
            }));
        if (!backend.Execute(std::move(spec)).ok()) ++bad_reads;
      }
      --readers_left;
    });
  }
  for (std::thread& c : clients) c.join();
  backend.Shutdown();

  EXPECT_GT(rounds.load(), 0u);
  EXPECT_EQ(failed_writes.load(), 0u);
  EXPECT_EQ(bad_reads.load(), 0u);
  std::vector<std::pair<std::string, std::string>> expect;
  for (uint64_t i = 0; i < kLoaded; ++i) {
    expect.emplace_back(Key(2 * i), row(2 * i));
  }
  EXPECT_EQ(t->ScanAll(), expect);
}

INSTANTIATE_TEST_SUITE_P(AllModes, BackendModeTest,
                         ::testing::Values(EngineMode::kConventional,
                                           EngineMode::kDora,
                                           EngineMode::kBionic),
                         [](const auto& info) {
                           return engine::EngineModeName(info.param);
                         });

// Crash-harness smoke on the threaded WAL flusher: after Crash(), every
// already-acknowledged write commit must have its commit record inside the
// frozen durable prefix, and no later write transaction is acknowledged.
TEST(ExecBackendCrashTest, AcknowledgedCommitsAreDurable) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 200;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 20;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();

  for (int i = 0; i < 150; ++i) {
    uint64_t priority = 0;
    backend.Execute(tatp.NextTransaction(), &priority);
  }
  backend.wal().Crash();

  // Post-crash write transactions must never be acknowledged.
  for (int i = 0; i < 20; ++i) {
    uint64_t priority = 0;
    Status st =
        backend.Execute(tatp.MakeUpdateSubscriberData(i % 200), &priority);
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(st.IsIOError()) << st.message();
  }

  const ThreadedStats stats = backend.stats();
  const uint64_t acknowledged_writes = stats.commits - stats.read_only_commits;
  EXPECT_GT(stats.durability_failures, 0u);

  const std::string durable = backend.wal().DurablePrefix();
  auto parsed = wal::ParseLogStream(Slice(durable));
  ASSERT_TRUE(parsed.ok());
  uint64_t durable_commits = 0;
  for (const wal::LogRecord& rec : *parsed) {
    if (rec.type == wal::RecordType::kCommit) ++durable_commits;
  }
  // Every acknowledged write commit is durable (the converse — durable but
  // unacknowledged — is legal: the crash may land between flush and ack).
  EXPECT_LE(acknowledged_writes, durable_commits);
  backend.Shutdown();
}

// Group commit is real: concurrent committers share flushes, so flush
// count stays well below append count under load.
TEST(ExecBackendCrashTest, GroupCommitBatchesFlushes) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 200;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 100;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  ThreadedBackend::RunOptions options;
  options.clients = 8;
  options.warmup_txns = 0;
  options.measured_txns = 200;
  backend.RunClosedLoop([&] { return tatp.NextTransaction(); }, options);
  const ThreadedWal::Stats wal = backend.wal().stats();
  backend.Shutdown();
  ASSERT_GT(wal.appends, 0u);
  EXPECT_LT(wal.flushes, wal.appends);
}

// Wall-clock open loop: a real arrival thread offers load through the
// bounded queue while server threads drain it. Smoke-checks the counter
// reconciliation (offered == admitted + shed) and that goodput is real.
// Runs under TSan in CI — the shared queue and report merging must be
// clean.
TEST(ExecBackendOpenLoopTest, OpenLoopOffersShedsAndCommits) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 500;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend backend(&engine, ThreadedBackend::Config{});
  backend.Start();

  ThreadedBackend::OpenLoopOptions options;
  options.offered_tps = 20000;
  options.warmup_s = 0.05;
  options.duration_s = 0.25;
  options.queue_depth = 128;
  options.servers = 4;
  ThreadedBackend::OpenLoopReport report =
      backend.RunOpenLoop([&] { return tatp.NextTransaction(); }, options);
  backend.Shutdown();

  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.offered, report.admitted + report.shed);
  EXPECT_GT(report.completed, 0u);
  EXPECT_GT(report.committed, 0u);
  EXPECT_LE(report.committed, report.completed);
  EXPECT_GT(report.goodput_tps, 0.0);
  EXPECT_EQ(report.sojourn.count(), report.completed);
  EXPECT_GT(report.sojourn.Percentile(50), 0);
}

// Overload on the wall clock: offer far beyond what four servers with a
// slow simulated fsync can absorb; the bounded queue must shed rather
// than grow, and served goodput must survive.
TEST(ExecBackendOpenLoopTest, OpenLoopOverloadSheds) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 200;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 200;  // throttle service capacity
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();

  ThreadedBackend::OpenLoopOptions options;
  options.offered_tps = 200000;
  options.warmup_s = 0.02;
  options.duration_s = 0.2;
  options.queue_depth = 32;
  options.servers = 2;
  ThreadedBackend::OpenLoopReport report =
      backend.RunOpenLoop([&] { return tatp.NextTransaction(); }, options);
  backend.Shutdown();

  EXPECT_EQ(report.offered, report.admitted + report.shed);
  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.committed, 0u);
}

}  // namespace
}  // namespace bionicdb::exec
