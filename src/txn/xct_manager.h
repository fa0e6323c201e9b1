// XctManager: transaction lifecycle — id allocation, WAL integration
// (lazy Begin, write logging with undo capture, group-committed Commit,
// CLR-producing Abort). The same code runs on both execution substrates:
// its one log seam appends to the simulated wal::LogManager, or to the
// threaded backend's exec::ThreadedWal once one is attached.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/macros.h"
#include "common/relaxed_counter.h"
#include "common/status.h"
#include "sim/task.h"
#include "txn/xct.h"
#include "wal/log_manager.h"

namespace bionicdb::exec {
class ThreadedWal;
}

namespace bionicdb::txn {

struct XctManagerStats {
  uint64_t started = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t read_only_commits = 0;  ///< Commits that skipped the log entirely.
  uint64_t prepared = 0;           ///< 2PC yes-votes logged (write branches).
  uint64_t decisions_logged = 0;   ///< Coordinator commit decisions logged.
  uint64_t decisions_retired = 0;  ///< kCoordForget GC markers appended.
};

class XctManager {
 public:
  explicit XctManager(wal::LogManager* log) : log_(log) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(XctManager);

  /// Routes the log seam to `wal` (the threaded backend's), or back to the
  /// simulated LogManager with nullptr. On threads the awaited tasks below
  /// never suspend: appends and durability waits block the calling thread.
  void AttachThreadedWal(exec::ThreadedWal* wal) { twal_ = wal; }

  /// Starts a transaction. No log record yet (written lazily on first
  /// write — read-only transactions never touch the log).
  std::unique_ptr<Xct> Begin();

  /// Logs a forward operation and records its undo entry. `redo` is the
  /// after-image, `undo` the before-image.
  sim::Task<Status> LogWrite(Xct* xct, wal::RecordType type,
                             uint32_t table_id, const std::string& key,
                             const std::string& redo, const std::string& undo,
                             int socket);

  /// Commits: appends the commit record and waits for durability (group
  /// commit). Read-only transactions commit without logging.
  sim::Task<Status> Commit(Xct* xct, int socket);

  /// The two halves of Commit, for callers that account the CPU-bound
  /// append separately from the (idle) durability wait. Returns the commit
  /// record's LSN, or kInvalidLsn for a read-only transaction (in which
  /// case the transaction is already committed and the wait is a no-op).
  sim::Task<wal::Lsn> AppendCommitRecord(Xct* xct, int socket);
  sim::Task<Status> WaitCommitDurable(Xct* xct, wal::Lsn commit_lsn);

  /// Aborts: applies the undo chain backwards through `applier` (which
  /// must functionally revert the operation), logging a CLR per undo and a
  /// final abort record. Abort needs no durability wait.
  using UndoApplier = std::function<void(const UndoEntry&)>;
  sim::Task<Status> Abort(Xct* xct, const UndoApplier& applier, int socket);

  /// 2PC participant yes-vote for the branch `xct` of the cluster-wide
  /// transaction `gtid`: appends a kPrepare record (gtid in its key,
  /// wal::PrepareGtid decodes it) and waits for durability. A read-only
  /// branch votes yes without logging. The branch stays kActive: it must
  /// subsequently be finished with Commit (coordinator decided commit) or
  /// Abort (presumed abort).
  sim::Task<Status> Prepare(Xct* xct, uint64_t gtid, int socket);

  /// The two halves of Prepare, for callers that account the CPU-bound
  /// append separately from the (idle) durability wait. kInvalidLsn means
  /// a read-only branch: already a yes-vote, nothing to wait for.
  sim::Task<wal::Lsn> AppendPrepareRecord(Xct* xct, uint64_t gtid,
                                          int socket);
  sim::Task<Status> WaitPrepareDurable(wal::Lsn prepare_lsn);

  /// Coordinator commit decision for `gtid`: appends kCoordCommit to this
  /// manager's log and waits for durability. Presumed abort means no
  /// record is ever written for the abort decision.
  sim::Task<Status> LogCommitDecision(uint64_t gtid, int socket);

  /// Decision-record GC: appends kCoordForget for `gtid` once every
  /// participant's branch commit record is durable. Append-only, no
  /// durability wait — losing the marker in a crash merely means the
  /// decision survives one recovery longer than necessary.
  sim::Task<Status> LogForgetDecision(uint64_t gtid, int socket);

  /// Appends a kCheckpoint record and waits for it to become durable.
  sim::Task<Status> LogCheckpoint(int socket);

  /// Draws a fresh wait-die priority WITHOUT starting a transaction. The
  /// distributed layer pins one priority across all branches of a
  /// cluster-wide transaction and must fix it before branches race to
  /// Begin() on their home shards. Consumes a transaction id, so the
  /// priority is unique within this manager's domain slice (see
  /// SetPriorityDomain).
  uint64_t DrawPriority() { return EncodePriority(NextTxnId()); }

  /// Makes this manager's priorities globally unique across a cluster:
  /// every priority it hands out (Begin() and DrawPriority()) becomes
  /// `id * stride + offset`, so managers configured with the same stride
  /// and distinct offsets draw from disjoint residue classes. Wait-die
  /// needs this — LockManager::ShouldDie breaks conflicts with a strict
  /// `<` on priority, so two distinct transactions that TIE (possible
  /// when N per-shard counters all start at 1) would both wait and can
  /// hold-and-wait in a cycle across shards that neither ever breaks.
  /// The default (stride 1, offset 0) keeps priority == id exactly, so
  /// single-engine behavior is bit-identical. Call before any Begin().
  void SetPriorityDomain(uint64_t stride, uint64_t offset) {
    BIONICDB_CHECK(stride >= 1 && offset < stride);
    prio_stride_ = stride;
    prio_offset_ = offset;
  }

  /// started/committed/aborted/read_only_commits are bumped with
  /// common::RelaxedAdd, since on threads every client thread runs the
  /// lifecycle; read them with common::RelaxedLoad while clients run.
  const XctManagerStats& stats() const { return stats_; }
  wal::LogManager* log() { return log_; }

 private:
  // The log seam: the only calls that reach a log.
  sim::Task<wal::Lsn> Append(wal::LogRecord&& rec, int socket);
  sim::Task<Status> WaitDurable(wal::Lsn lsn);

  sim::Task<Status> EnsureBeginLogged(Xct* xct, int socket);
  TxnId NextTxnId() { return common::RelaxedAdd(next_txn_); }
  uint64_t EncodePriority(TxnId id) const {
    return id * prio_stride_ + prio_offset_;
  }

  wal::LogManager* log_;
  exec::ThreadedWal* twal_ = nullptr;  ///< See AttachThreadedWal.
  TxnId next_txn_ = 1;
  uint64_t prio_stride_ = 1;  ///< See SetPriorityDomain.
  uint64_t prio_offset_ = 0;
  XctManagerStats stats_;
};

}  // namespace bionicdb::txn
