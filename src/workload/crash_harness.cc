#include "workload/crash_harness.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/parallel_for.h"
#include "common/random.h"
#include "engine/engine.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "workload/sharded_driver.h"
#include "workload/sharded_tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::workload {
namespace {

/// Consistent-cut sampling period of a multi-shard run.
constexpr SimTime kSampleEveryNs = 200000;

shard::ClusterConfig HarnessClusterConfig(const CrashHarnessConfig& cfg,
                                          bool with_faults) {
  shard::ClusterConfig cc;
  cc.num_shards = cfg.num_shards;
  switch (cfg.mode) {
    case engine::EngineMode::kConventional:
      cc.engine = engine::EngineConfig::Conventional();
      break;
    case engine::EngineMode::kDora:
      cc.engine = engine::EngineConfig::Dora();
      cc.engine.num_partitions = 4;
      break;
    case engine::EngineMode::kBionic:
      cc.engine = engine::EngineConfig::Bionic();
      cc.engine.num_partitions = 4;
      break;
  }
  if (with_faults) cc.engine.fault_plan = cfg.fault_plan;
  cc.fanout_2pc = cfg.fanout;
  return cc;
}

/// Recovery target applying into fresh tables' base storage.
class DbTarget : public wal::RecoveryTarget {
 public:
  explicit DbTarget(engine::Database* db) : db_(db) {}
  void RedoInsert(uint32_t t, Slice k, Slice v) override {
    BIONICDB_CHECK(db_->GetTable(t)->BasePut(k, v).ok());
  }
  void RedoUpdate(uint32_t t, Slice k, Slice v) override {
    BIONICDB_CHECK(db_->GetTable(t)->BasePut(k, v).ok());
  }
  void RedoDelete(uint32_t t, Slice k) override {
    (void)db_->GetTable(t)->BaseDelete(k);
  }

 private:
  engine::Database* db_;
};

std::map<std::string, std::string> StateOf(engine::Database& db) {
  std::map<std::string, std::string> state;
  for (uint32_t id = 0; id < db.num_tables(); ++id) {
    engine::Table* t = db.GetTable(id);
    for (auto& [k, v] : t->ScanAll()) state[t->name() + "/" + k] = v;
  }
  return state;
}

/// A cluster with its workload loaded; keeps the workload object alive so
/// NextTransaction can be called while the simulator runs.
struct Instance {
  sim::Simulator sim;
  shard::Cluster cluster;
  std::unique_ptr<ShardedTatp> tatp;
  std::unique_ptr<TpccWorkload> tpcc;

  Instance(const CrashHarnessConfig& cfg, bool with_faults)
      : cluster(&sim, HarnessClusterConfig(cfg, with_faults)) {
    if (cfg.use_tpcc) {
      BIONICDB_CHECK_MSG(cfg.num_shards == 1,
                         "the crash harness runs TPC-C on one shard only");
      TpccConfig tc;
      tc.warehouses = 1;
      tc.districts_per_warehouse = 2;
      tc.customers_per_district = cfg.scale;
      tc.items = 100;
      tc.initial_orders_per_district = 10;
      tc.seed = cfg.seed;
      tpcc = std::make_unique<TpccWorkload>(cluster.shard(0), tc);
      BIONICDB_CHECK(tpcc->Load().ok());
    } else {
      ShardedTatpConfig tc;
      tc.subscribers = static_cast<uint64_t>(cfg.scale);
      tc.seed = cfg.seed;
      tc.cross_shard_ratio = cfg.cross_shard_ratio;
      tatp = std::make_unique<ShardedTatp>(&cluster, tc);
      BIONICDB_CHECK(tatp->Load().ok());
    }
  }

  shard::ShardedTxn Next() {
    if (tatp) return tatp->NextTransaction();
    shard::ShardedTxn txn;
    txn.fragments.push_back({0, tpcc->NextTransaction()});
    return txn;
  }
};

struct RunFlag {
  bool done = false;
};

sim::Task<void> DriveAndFlag(Instance* inst, DriverConfig dcfg,
                             RunFlag* flag) {
  co_await RunShardedClosedLoop(
      &inst->cluster, [inst] { return inst->Next(); }, dcfg, nullptr);
  flag->done = true;
}

/// Samples each shard's durable LSN at one virtual instant — a
/// consistent cluster-wide crash point. Consecutive duplicates (no log
/// progress between ticks) are collapsed.
sim::Task<void> SampleCuts(shard::Cluster* cluster, RunFlag* flag,
                           std::vector<ClusterCut>* out) {
  sim::Simulator* sim = cluster->simulator();
  while (!flag->done) {
    co_await sim::Delay{sim, kSampleEveryNs};
    ClusterCut cut;
    cut.time = sim->Now();
    for (int i = 0; i < cluster->num_shards(); ++i) {
      cut.cuts.push_back(
          static_cast<size_t>(cluster->shard(i)->log()->durable_lsn()));
    }
    if (out->empty() || out->back().cuts != cut.cuts) {
      out->push_back(std::move(cut));
    }
  }
}

/// Number of leading records lying wholly inside the prefix [0, len).
size_t SurvivingRecords(const std::vector<wal::LogRecord>& records,
                        size_t len) {
  size_t n = 0;
  while (n < records.size() &&
         records[n].lsn + records[n].SerializedSize() <= len) {
    ++n;
  }
  return n;
}

/// The commit rule, as the oracle sees it: local commits win, local aborts
/// lose, prepared branches win iff the coordinator's decision survives in
/// SOME shard's prefix. Covers records[0, count).
std::unordered_set<uint64_t> CommittedSet(
    const std::vector<wal::LogRecord>& records, size_t count,
    const wal::DistributedDecisions& decisions) {
  std::unordered_set<uint64_t> committed;
  for (size_t i = 0; i < count; ++i) {
    const wal::LogRecord& rec = records[i];
    switch (rec.type) {
      case wal::RecordType::kCommit:
        committed.insert(rec.txn_id);
        break;
      case wal::RecordType::kAbort:
        committed.erase(rec.txn_id);
        break;
      case wal::RecordType::kPrepare:
        if (decisions.committed_gtids.count(wal::PrepareGtid(rec)) > 0) {
          committed.insert(rec.txn_id);
        }
        break;
      default:
        break;
    }
  }
  return committed;
}

/// Mangles the tail of `image` (the log cut at `cut`) and returns the
/// oracle's prefix length: the bytes whose records must survive recovery.
size_t MangleTail(TailFault fault, uint64_t seed, size_t cut,
                  const std::vector<wal::LogRecord>& records,
                  const std::vector<size_t>& offsets, std::string* image) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (cut + 1)));
  switch (fault) {
    case TailFault::kCleanCut:
      break;
    case TailFault::kZeroFill:
      // Preallocated log file: the crash point is followed by a zero run.
      image->append(257 + rng.Uniform(2048), '\0');
      break;
    case TailFault::kBitFlip: {
      // Snap to the last record wholly inside the cut and flip one bit in
      // its body past the length field, so the parser sees a satisfiable
      // length and a failing CRC: a clean kCorruptRecord stop that must
      // drop exactly this record.
      const size_t n = SurvivingRecords(records, cut);
      if (n == 0) break;  // Nothing durable to flip: plain truncation.
      const size_t start = offsets[n - 1];
      const size_t end = start + records[n - 1].SerializedSize();
      image->resize(end);
      const size_t pos = start + 4 + rng.Uniform(end - start - 4);
      (*image)[pos] = static_cast<char>(
          static_cast<unsigned char>((*image)[pos]) ^ (1u << rng.Uniform(8)));
      return start;
    }
  }
  return cut;
}

/// Counters add up; the per-log fields (checkpoint, torn tail) keep the
/// last log's values.
void Accumulate(const wal::RecoveryStats& s, wal::RecoveryStats* into) {
  into->records_scanned += s.records_scanned;
  into->committed_txns += s.committed_txns;
  into->loser_txns += s.loser_txns;
  into->redo_applied += s.redo_applied;
  into->redo_skipped += s.redo_skipped;
  into->prepared_committed += s.prepared_committed;
  into->prepared_aborted += s.prepared_aborted;
  into->decision_records += s.decision_records;
  into->forget_records += s.forget_records;
  into->checkpoint_lsn = s.checkpoint_lsn;
  into->torn_tail = s.torn_tail;
}

}  // namespace

const char* TailFaultName(TailFault f) {
  switch (f) {
    case TailFault::kCleanCut:
      return "clean_cut";
    case TailFault::kZeroFill:
      return "zero_fill";
    case TailFault::kBitFlip:
      return "bit_flip";
  }
  return "?";
}

CrashHarness::CrashHarness(const CrashHarnessConfig& config) : cfg_(config) {}

const CrashRunResult& CrashHarness::Run() {
  EnsureRan();
  return result_;
}

const std::vector<size_t>& CrashHarness::record_offsets() {
  EnsureRan();
  BIONICDB_CHECK(offsets_.size() == 1);
  return offsets_[0];
}

const std::vector<ClusterCut>& CrashHarness::samples() {
  EnsureRan();
  return samples_;
}

void CrashHarness::EnsureRan() {
  if (ran_) return;
  ran_ = true;

  Instance inst(cfg_, /*with_faults=*/true);
  shard::Cluster& cluster = inst.cluster;
  for (int i = 0; i < cluster.num_shards(); ++i) {
    engine::Database& db = cluster.shard(i)->db();
    initial_states_.push_back(StateOf(db));
    std::vector<std::string> names;
    for (uint32_t id = 0; id < db.num_tables(); ++id) {
      names.push_back(db.GetTable(id)->name());
    }
    table_names_.push_back(std::move(names));
  }

  DriverConfig dcfg;
  dcfg.clients = cfg_.clients;
  dcfg.warmup_txns = 0;
  dcfg.measured_txns = static_cast<uint64_t>(cfg_.txns);
  RunFlag flag;
  if (cluster.num_shards() > 1) {
    inst.sim.Spawn(SampleCuts(&cluster, &flag, &samples_));
  }
  inst.sim.Spawn(DriveAndFlag(&inst, dcfg, &flag));
  inst.sim.Run();

  for (int i = 0; i < cluster.num_shards(); ++i) {
    engine::Engine* e = cluster.shard(i);
    const engine::RunMetrics& m = e->metrics();
    result_.shards.push_back(
        {e->log()->buffer(), e->log()->durable_lsn(), e->log()->stats()});
    result_.commits += m.commits;
    result_.aborts += m.aborts;
    result_.faults_injected += m.faults_injected;
    result_.durability_failures += m.durability_failures;
    result_.hw_fallbacks += m.hw_fallbacks;
    result_.io_errors += m.io_errors;
  }
  result_.tpc_commits = cluster.tpc_stats().committed;
  result_.end_time_ns = inst.sim.Now();
  result_.events_processed = inst.sim.events_processed();

  // The untouched images must parse end-to-end: the oracle is built from
  // them.
  for (const ShardLog& shard : result_.shards) {
    Result<std::vector<wal::LogRecord>> parsed =
        wal::ParseLogStream(Slice(shard.log));
    BIONICDB_CHECK(parsed.ok());
    std::vector<size_t> offsets;
    offsets.reserve(parsed->size());
    for (const wal::LogRecord& r : *parsed) {
      // Quiescent checkpoints change what recovery replays; this oracle
      // does not model them, and no workload run here takes one.
      BIONICDB_CHECK(r.type != wal::RecordType::kCheckpoint);
      offsets.push_back(static_cast<size_t>(r.lsn));
    }
    records_.push_back(std::move(parsed.value()));
    offsets_.push_back(std::move(offsets));
  }
}

CrashHarness::State CrashHarness::Oracle(
    size_t shard, size_t oracle_len,
    const wal::DistributedDecisions& decisions) const {
  const std::vector<wal::LogRecord>& records = records_[shard];
  const size_t count = SurvivingRecords(records, oracle_len);
  const std::unordered_set<uint64_t> committed =
      CommittedSet(records, count, decisions);
  State state = initial_states_[shard];
  for (size_t i = 0; i < count; ++i) {
    const wal::LogRecord& r = records[i];
    if (committed.count(r.txn_id) == 0) continue;
    const std::string key = table_names_[shard][r.table_id] + "/" + r.key;
    switch (r.type) {
      case wal::RecordType::kInsert:
      case wal::RecordType::kUpdate:
        state[key] = r.redo;
        break;
      case wal::RecordType::kDelete:
        state.erase(key);
        break;
      default:  // Begin/Commit/Abort carry no effects; committed txns
        break;  // never carry CLRs under whole-transaction rollback.
    }
  }
  return state;
}

std::string CrashHarness::CheckCrashPoint(const CrashPoint& point,
                                          wal::RecoveryStats* stats) {
  EnsureRan();
  const size_t n = result_.shards.size();
  BIONICDB_CHECK(point.cuts.size() == n);
  // Tail corruption is modeled on a single log; a multi-shard crash point
  // is a cut of every log at once.
  BIONICDB_CHECK(point.fault == TailFault::kCleanCut || n == 1);

  // Surviving (mangled) images and the prefix each one's oracle covers.
  std::vector<std::string> images(n);
  std::vector<size_t> cuts(n);
  std::vector<size_t> oracle_lens(n);
  for (size_t i = 0; i < n; ++i) {
    cuts[i] = std::min(point.cuts[i], result_.shards[i].log.size());
    images[i] = result_.shards[i].log.substr(0, cuts[i]);
    oracle_lens[i] = MangleTail(point.fault, point.seed, cuts[i],
                                records_[i], offsets_[i], &images[i]);
  }
  const char* fault = TailFaultName(point.fault);

  // Cluster-wide decision set, from every surviving image.
  wal::DistributedDecisions decisions;
  for (const std::string& image : images) {
    const Status st = wal::CollectDecisions(Slice(image), &decisions);
    if (!st.ok()) return std::string(fault) + ": CollectDecisions: " +
                         st.ToString();
  }

  Instance fresh(cfg_, /*with_faults=*/false);
  for (size_t i = 0; i < n; ++i) {
    engine::Database& db = fresh.cluster.shard(static_cast<int>(i))->db();
    DbTarget target(&db);
    wal::RecoveryStats shard_stats;
    const Status rs =
        wal::Recover(Slice(images[i]), &target, &shard_stats, &decisions);
    if (stats != nullptr) Accumulate(shard_stats, stats);
    std::ostringstream oss;
    oss << fault << " shard " << i << " cut=" << cuts[i];
    if (!rs.ok()) {
      oss << ": recover failed: " << rs.ToString();
      return oss.str();
    }

    const State expect = Oracle(i, oracle_lens[i], decisions);
    const State got = StateOf(db);
    if (got == expect) continue;
    oss << " oracle_len=" << oracle_lens[i] << ": recovered " << got.size()
        << " rows, oracle expects " << expect.size();
    for (const auto& [k, v] : expect) {
      auto it = got.find(k);
      if (it == got.end()) {
        oss << "; missing " << k;
        break;
      }
      if (it->second != v) {
        oss << "; value mismatch at " << k;
        break;
      }
    }
    for (const auto& [k, v] : got) {
      (void)v;
      if (expect.count(k) == 0) {
        oss << "; unexpected " << k;
        break;
      }
    }
    return oss.str();
  }

  // Cross-shard atomicity: every global transaction's branches must all
  // commit or all abort under the recovered outcome.
  std::unordered_map<uint64_t, std::vector<bool>> outcomes;  // by gtid
  for (size_t i = 0; i < n; ++i) {
    const size_t count = SurvivingRecords(records_[i], oracle_lens[i]);
    const std::unordered_set<uint64_t> committed =
        CommittedSet(records_[i], count, decisions);
    for (size_t r = 0; r < count; ++r) {
      const wal::LogRecord& rec = records_[i][r];
      if (rec.type != wal::RecordType::kPrepare) continue;
      outcomes[wal::PrepareGtid(rec)].push_back(committed.count(rec.txn_id) >
                                                0);
    }
  }
  for (const auto& [gtid, votes] : outcomes) {
    for (bool v : votes) {
      if (v != votes[0]) {
        return "atomicity violation: gtid " + std::to_string(gtid) +
               " committed on some shards and aborted on others";
      }
    }
  }
  return "";
}

std::vector<std::string> CrashHarness::CheckCrashPoints(
    const std::vector<CrashPoint>& points, size_t jobs,
    wal::RecoveryStats* stats) {
  EnsureRan();  // Serially; the parallel phase below only reads.
  using Checked = std::pair<std::string, wal::RecoveryStats>;
  std::vector<Checked> checked =
      common::RunGrid<Checked>(points.size(), jobs, [&](size_t i) {
        Checked c;
        c.first = CheckCrashPoint(points[i], &c.second);
        return c;
      });
  std::vector<std::string> divergences;
  divergences.reserve(checked.size());
  for (Checked& c : checked) {
    if (stats != nullptr) Accumulate(c.second, stats);
    divergences.push_back(std::move(c.first));
  }
  return divergences;
}

}  // namespace bionicdb::workload
