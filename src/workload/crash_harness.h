// Crash-recovery property harness: runs a workload (TATP or TPC-C) once on
// a shard::Cluster, under an optional fault plan, captures every shard's
// WAL image, and then checks recovery at arbitrary crash points — with a
// corpus of tail corruptions — against a committed-transaction oracle
// computed from the logs themselves. One engine is a 1-shard cluster.
//
// A crash point gives every shard's surviving log prefix. At one shard any
// byte offset is a valid crash point. At several shards the run samples
// CONSISTENT cluster-wide cuts (every shard's durable LSN at one virtual
// instant, samples()), and each is checked with distributed recovery plus
// cross-shard atomicity of every 2PC transaction. Coordinator and
// participant crashes both fall out of consistent cuts:
//  * a cut landing after prepares but before the coordinator's decision
//    record is a COORDINATOR crash — recovery must presume abort on
//    every participant (stats.prepared_aborted > 0);
//  * a cut landing after the decision but before a participant's local
//    commit record is a PARTICIPANT crash — recovery must commit the
//    prepared branch from the surviving decision record
//    (stats.prepared_committed > 0).
// The 2PC protocol makes the decision durable before any branch commits,
// so consistent cuts can never strand a committed branch without its
// decision; CheckCrashPoint verifies exactly that.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "engine/config.h"
#include "sim/fault.h"
#include "wal/log_manager.h"
#include "wal/record.h"
#include "wal/recovery.h"

namespace bionicdb::workload {

/// How the simulated crash mangles the log tail.
enum class TailFault {
  kCleanCut,  ///< Pure truncation at the crash point.
  kZeroFill,  ///< Truncation followed by preallocated-file zero padding.
  kBitFlip,   ///< Last durable record hit by a single flipped bit.
};

const char* TailFaultName(TailFault f);

struct CrashHarnessConfig {
  engine::EngineMode mode = engine::EngineMode::kDora;
  uint64_t seed = 1;
  bool use_tpcc = false;  ///< false == TATP. TPC-C runs on one shard only.
  int clients = 4;
  int txns = 200;   ///< Transactions across all clients.
  int scale = 100;  ///< TATP subscribers (across all shards) / TPC-C
                    ///< customers per district.
  sim::FaultPlan fault_plan;  ///< Applied to the original run only.
  int num_shards = 1;
  /// Fraction of TATP transactions that become two-shard 2PC writes
  /// (needs num_shards > 1).
  double cross_shard_ratio = 0.0;
  /// Parallel 2PC branch fan-out; false runs the sequential protocol.
  bool fanout = true;
};

/// One shard's captured log.
struct ShardLog {
  std::string log;  ///< Full in-memory log image.
  wal::Lsn durable_lsn = 0;
  wal::LogStats log_stats;
};

/// Everything the original (crashing) run produced. Counters are summed
/// over shards.
struct CrashRunResult {
  std::vector<ShardLog> shards;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t tpc_commits = 0;  ///< Distributed (2PC) commits.
  uint64_t faults_injected = 0;
  uint64_t durability_failures = 0;
  uint64_t hw_fallbacks = 0;
  uint64_t io_errors = 0;
  SimTime end_time_ns = 0;
  uint64_t events_processed = 0;
};

/// One consistent cluster-wide crash point: shard i's log survives up to
/// byte cuts[i] (its durable LSN at virtual time `time`).
struct ClusterCut {
  SimTime time = 0;
  std::vector<size_t> cuts;
};

class CrashHarness {
 public:
  explicit CrashHarness(const CrashHarnessConfig& config);

  /// Runs the workload (once; lazily) and returns the captured run.
  const CrashRunResult& Run();

  /// Start offsets of every record in a 1-shard run's captured log,
  /// ascending.
  const std::vector<size_t>& record_offsets();

  /// Consistent cluster-wide crash points sampled during the run,
  /// ascending in virtual time. Sampled only with more than one shard: a
  /// single log's record offsets already are consistent cuts.
  const std::vector<ClusterCut>& samples();

  /// A crash point: shard i's log is cut at byte cuts[i], and the tail is
  /// mangled by `fault` (only with one shard). `seed` randomizes the
  /// corruption (zero-run length / flipped bit).
  struct CrashPoint {
    std::vector<size_t> cuts;
    TailFault fault = TailFault::kCleanCut;
    uint64_t seed = 0;
  };

  /// Crashes every shard's log at the point, recovers a freshly loaded
  /// cluster from the mangled images (commit decisions collected across
  /// all of them), and compares each shard's logical state against the
  /// committed-transaction oracle for its surviving prefix, then checks
  /// that no 2PC transaction committed on some shards and aborted on
  /// others. Returns "" on success, a divergence description otherwise.
  /// `stats` (optional) accumulates every shard's recovery stats.
  ///
  /// Thread-safe once the original run has happened (Run() or any prior
  /// check): after that, all harness state it touches is read-only, and
  /// every call builds its own fresh cluster.
  std::string CheckCrashPoint(const CrashPoint& point,
                              wal::RecoveryStats* stats = nullptr);

  /// Checks every point, fanned out across up to `jobs` host threads (the
  /// original run happens first, serially, so the parallel phase only reads
  /// shared state). Results come back in point order — byte-identical to a
  /// jobs=1 run regardless of thread scheduling — and `stats` accumulates
  /// in that order too.
  std::vector<std::string> CheckCrashPoints(
      const std::vector<CrashPoint>& points, size_t jobs,
      wal::RecoveryStats* stats = nullptr);

 private:
  using State = std::map<std::string, std::string>;

  void EnsureRan();
  /// Expected logical state of `shard` after recovering its prefix
  /// [0, oracle_len) under the cluster-wide decision set: the loaded state
  /// plus the effects of every transaction that prefix commits.
  State Oracle(size_t shard, size_t oracle_len,
               const wal::DistributedDecisions& decisions) const;

  CrashHarnessConfig cfg_;
  bool ran_ = false;
  CrashRunResult result_;
  std::vector<ClusterCut> samples_;
  // Per shard:
  std::vector<State> initial_states_;  ///< After Load, before any txn.
  std::vector<std::vector<std::string>> table_names_;  ///< By table id.
  std::vector<std::vector<wal::LogRecord>> records_;
  std::vector<std::vector<size_t>> offsets_;
};

}  // namespace bionicdb::workload
