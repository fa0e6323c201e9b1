// Engine: the bionic DBMS facade. Wires the simulated platform, storage,
// indexes, WAL, transaction management, DORA execution, and the four
// hardware units into one of three architectures (see config.h), and
// exposes the transactional and analytic API the workloads run against.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/macros.h"
#include "common/result.h"
#include "dora/executor.h"
#include "engine/config.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "hw/cost_model.h"
#include "hw/log_unit.h"
#include "hw/platform.h"
#include "hw/queue_engine.h"
#include "hw/scanner_unit.h"
#include "hw/tree_probe_unit.h"
#include "index/btree.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "txn/lock_manager.h"
#include "txn/xct_manager.h"
#include "wal/log_manager.h"

namespace bionicdb::exec {
class ThreadedBackend;
}

namespace bionicdb::engine {

class Engine {
 public:
  Engine(sim::Simulator* sim, const EngineConfig& config);
  ~Engine();
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Engine);

  // ------------------------------------------------------------- context --
  /// Carried through every timed operation. `core_held` tells the cost
  /// helpers whether the caller already occupies a CPU core (DORA agents
  /// in synchronous mode) or must attach per work chunk.
  struct ExecContext {
    Engine* engine = nullptr;
    txn::Xct* xct = nullptr;
    int socket = 0;
    bool core_held = false;
  };

  // ------------------------------------------------------- setup & state --
  Table* CreateTable(const std::string& name);
  /// Untimed bulk load; overlay residency is drawn per row from the
  /// configured fraction (deterministic under the simulator seed).
  Status LoadRow(Table* table, Slice key, Slice record);
  /// Seals compact tables' bulk loads (storage/compact.h) — call after the
  /// last LoadRow, before serving. No-op for paged tables.
  void FinalizeLoad();

  Database& db() { return *db_; }
  hw::Platform& platform() { return *platform_; }
  sim::Simulator* simulator() { return sim_; }
  const EngineConfig& config() const { return config_; }

  // --------------------------------------------------- row operations ----
  // On the simulator all are timed: they charge CPU cost-model work to the
  // Figure-3 components, occupy devices, and may await hardware units. With
  // a threaded backend attached the same coroutines run untimed (see
  // AttachThreadedBackend).
  sim::Task<Result<std::string>> Read(ExecContext& ctx, Table* table,
                                      Slice key);

  /// Zero-copy point read: same timing and outcomes as Read(), but the
  /// record comes back as a view aliasing engine-owned memory (the
  /// overlay's leaf arena or the row's slotted page) instead of a fresh
  /// std::string. The view is only guaranteed until the caller's next
  /// co_await (other transactions may run and move the bytes) — decode or
  /// copy it before suspending.
  sim::Task<Result<Slice>> ReadView(ExecContext& ctx, Table* table,
                                    Slice key);

  /// Batched point reads. On the hardware probe path all probes are issued
  /// concurrently and overlap in the pipelined tree probe unit ("no need
  /// for those requests to arrive simultaneously" — §5.3); in software they
  /// execute back-to-back. Results are positionally aligned with `keys`.
  sim::Task<std::vector<Result<std::string>>> MultiRead(
      ExecContext& ctx, Table* table, const std::vector<std::string>& keys);

  /// Updates a row. `known_old` (optional) supplies the before-image when
  /// the caller just read the row — skipping the second index probe, as an
  /// engine that keeps the located leaf position would. It may point at a
  /// ReadView() view: the bytes are consumed before the first suspension.
  sim::Task<Status> Update(ExecContext& ctx, Table* table, Slice key,
                           Slice record, const Slice* known_old = nullptr);
  sim::Task<Status> Insert(ExecContext& ctx, Table* table, Slice key,
                           Slice record);
  sim::Task<Status> Delete(ExecContext& ctx, Table* table, Slice key);

  /// Secondary-index probe: skey -> primary key.
  sim::Task<Result<std::string>> ProbeSecondary(ExecContext& ctx, Table* table,
                                                const std::string& index_name,
                                                Slice skey);
  /// Secondary-index maintenance (timed; functional insert).
  sim::Task<Status> InsertSecondary(ExecContext& ctx, Table* table,
                                    const std::string& index_name, Slice skey,
                                    Slice pkey);

  /// Primary-key range read over [lo, hi), up to `limit` rows (0 ==
  /// unlimited). Returns (key, record) pairs merged across base + overlay.
  sim::Task<Result<std::vector<std::pair<std::string, std::string>>>>
  RangeRead(ExecContext& ctx, Table* table, Slice lo, Slice hi, size_t limit);

  /// Secondary-index range read over [lo, hi): returns (skey, pkey) pairs
  /// in index order, up to `limit` (0 == unlimited). Timed like a primary
  /// range probe; secondary indexes live beside the primary in the same
  /// (overlay or host) memory.
  sim::Task<Result<std::vector<std::pair<std::string, std::string>>>>
  RangeReadIndex(ExecContext& ctx, Table* table,
                 const std::string& index_name, Slice lo, Slice hi,
                 size_t limit);

  // ----------------------------------------------------------- analytics --
  /// Full-table predicate count: the enhanced-scanner path (§5.2) when
  /// offloaded, a CPU scan otherwise. Overlay deltas are patched in.
  sim::Task<Result<uint64_t>> ScanCount(ExecContext& ctx, Table* table,
                                        const std::function<bool(Slice)>& pred);

  /// Aggregate over a named columnar projection (Figure 4's "Columnar
  /// database"): count and sum of values matching `pred` (null == all).
  /// The projection is as of the last bulk merge; the overlay's dirty
  /// delta is patched in at query time, so results reflect live data.
  struct ProjectionAggregate {
    uint64_t matches = 0;
    int64_t sum = 0;
  };
  sim::Task<Result<ProjectionAggregate>> ScanProjection(
      ExecContext& ctx, Table* table, const std::string& projection_name,
      const std::function<bool(int64_t)>& pred = nullptr);

  // ---------------------------------------------------------- maintenance --
  /// Bulk-merges a table's overlay delta back to base storage (§5.6) and
  /// refreshes its columnar projections.
  sim::Task<Status> BulkMerge(ExecContext& ctx, Table* table);

  /// Quiescent checkpoint: bulk-merges every overlay (or flushes the
  /// buffer pool), then appends a durable kCheckpoint record. Recovery
  /// replays only the log suffix after it. Call between transactions (no
  /// in-flight writers).
  sim::Task<Status> Checkpoint(ExecContext& ctx);

  /// Rebuilds a table's primary index at optimal fill ("Tree SMO & reorg"
  /// stays in software in Figure 4). Timed per-entry; call when churn has
  /// hollowed the tree.
  sim::Task<Status> ReorganizeIndex(ExecContext& ctx, Table* table);

  // ---------------------------------------------------------- transactions --
  struct TxnStep {
    Table* table = nullptr;
    /// Keys this step locks (2PL row locks / DORA partition-local locks).
    /// keys[0] also routes the step to its partition.
    std::vector<std::string> keys;
    bool read_only = false;
    std::function<sim::Task<Status>(ExecContext&)> fn;
  };
  using Phase = std::vector<TxnStep>;
  struct TxnSpec {
    std::vector<Phase> phases;
    /// Optional generator for phases whose shape is only known at run time
    /// (e.g. TPC-C StockLevel probes the stock of whatever items the
    /// order-line scan returned). Invoked with 0, 1, ... after the static
    /// phases; fills `*out` and returns true, or returns false when done.
    std::function<bool(int, Phase*)> dynamic_phases;
  };

  /// Runs one transaction to commit or abort: ExecuteBranch, then
  /// FinishBranch — a local transaction is a branch without a prepare.
  /// Conventional mode executes steps inline under 2PL; DORA/Bionic
  /// dispatch each phase's steps as actions and join at an RVP. Records
  /// metrics. Returns the failing status when the phases fail, else the
  /// commit's. The same lifecycle runs on the simulator and, with a
  /// threaded backend attached, on real threads (see docs/EXECUTION.md),
  /// where the task never suspends.
  ///
  /// `spec` is only read, and must outlive the returned task; retries pass
  /// the same spec again.
  ///
  /// `priority` (optional): wait-die timestamp carried across retries. On
  /// entry *priority == 0 assigns a fresh timestamp and writes it back;
  /// a retry passes the same pointer so the transaction ages instead of
  /// forever dying to older peers.
  ///
  /// `arrival_ts` (optional): when >= 0, the transaction's true arrival
  /// time — an open-loop server passes the admission-queue enqueue
  /// timestamp so the recorded latency is the end-to-end SOJOURN time and
  /// the queue wait lands in the timeline's admit stage. Purely an
  /// accounting origin: it never changes scheduling, so the default (-1,
  /// "arrived now") leaves closed-loop runs bit-identical.
  sim::Task<Status> Execute(const TxnSpec& spec, int socket = 0,
                            uint64_t* priority = nullptr,
                            SimTime arrival_ts = -1);

  // ------------------------------------------------ distributed branches --
  /// One branch of a transaction, produced by ExecuteBranch and finished by
  /// FinishBranch: a whole local transaction (Execute), or one shard-local
  /// branch of a distributed (2PC) one. Between the two the branch holds
  /// its locks and (conventional mode) its worker-pool slot, exactly like
  /// a transaction between its last action and its commit record.
  struct BranchHandle {
    std::unique_ptr<txn::Xct> xct;
    obs::TxnTimeline* tl = nullptr;
    SimTime start = 0;
    int socket = 0;
    uint64_t span_id = 0;
    /// Conventional mode on threads: the backend's global transaction
    /// mutex, which stands in for 2PL there (docs/EXECUTION.md). Taken
    /// where the simulator takes its worker-pool slot, dropped right after
    /// the commit-record append or the undo. Empty otherwise.
    std::unique_lock<std::mutex> serial;
  };

  /// Begins a transaction and runs `spec`'s phases, stopping BEFORE the
  /// commit protocol and leaving the branch active with locks held. On
  /// failure the caller must still FinishBranch(h, false) to undo and
  /// release. `priority` and `arrival_ts` are as for Execute.
  sim::Task<Status> ExecuteBranch(BranchHandle* h, const TxnSpec& spec,
                                  int socket, uint64_t* priority,
                                  SimTime arrival_ts = -1);
  /// 2PC phase 1 on this branch: durable yes-vote for `gtid` (read-only
  /// branches vote for free). Charged to the timeline's 2pc_prepare stage.
  /// `wait_durable = false` appends the prepare without waiting: the
  /// coordinator-colocated branch uses this because the decision record —
  /// appended later to the SAME log at a higher LSN — cannot become durable
  /// without the prepare preceding it (monotone durable prefix), and a
  /// crash before the decision is durable resolves presumed-abort whether
  /// or not the prepare survived.
  sim::Task<Status> PrepareBranch(BranchHandle* h, uint64_t gtid,
                                  bool wait_durable = true);
  /// Coordinator decision record for `gtid`, appended to THIS engine's log
  /// and made durable; charged to `coord`'s 2pc_decision stage.
  sim::Task<Status> LogCoordCommit(BranchHandle* coord, uint64_t gtid);
  /// Decision-record GC marker for `gtid` on THIS engine's log: append
  /// only, no durability wait. Call only after every branch of the
  /// transaction finished committing (their kCommit records are durable).
  sim::Task<Status> LogCoordForget(uint64_t gtid, int socket);
  /// Commit (commit record + durability wait) or abort (undo + CLRs) — 2PC
  /// phase 2 for a distributed branch. Releases locks, records
  /// latency/metrics, frees the slot. Returns OK after an abort.
  sim::Task<Status> FinishBranch(BranchHandle* h, bool commit);

  /// Request payload flowing through the bounded admission layer.
  struct AdmittedTxn {
    TxnSpec spec;
    uint64_t client = 0;  ///< Lazily-generated client id (routes sockets).
  };

  /// Bounded open-loop admission queue; null unless config.admission
  /// .enabled. Arrival generators Offer() into it, open-loop servers
  /// PopBatch() from it (see workload::RunOpenLoop).
  AdmissionQueue<AdmittedTxn>* admission() { return admission_.get(); }

  // ------------------------------------------------------------ lifecycle --
  /// Spawns DORA agents (no-op for the conventional engine).
  void Start();

  /// Reads every table's pages through the buffer pool once (timed; run it
  /// during warmup). No-op when the overlay replaces the pool.
  sim::Task<void> PreheatBufferPool();
  /// Drains agents; await after all submitted transactions completed.
  sim::Task<void> Shutdown();

  /// Zeroes metrics/breakdown/energy and restarts the measurement window
  /// (call after warmup).
  void ResetStats();
  /// Closes the measurement window: fills metrics().elapsed_ns/joules.
  void FinishRun();

  // ------------------------------------------------------------- telemetry --
  RunMetrics& metrics() { return metrics_; }
  hw::Breakdown& breakdown() { return breakdown_; }
  /// Every run quantity under a stable dotted name ("engine.commits",
  /// "breakdown.btree_ns", "wal.flush_retries", ...). Bound directly to the
  /// live fields — reading is always current; see docs/OBSERVABILITY.md.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  /// Tracer shared by every layer; null-object (disabled) unless
  /// config.trace.enabled.
  obs::Tracer* tracer() { return tracer_.get(); }
  /// Flight recorder; null unless config.flight.enabled.
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  /// Time-in-state sampling profiler; null unless config.profile.enabled.
  obs::Profiler* profiler() { return profiler_.get(); }
  /// Figure-3 component breakdown of the measurement window so far.
  obs::BreakdownReport BreakdownSnapshot() const {
    return obs::BreakdownReport::FromRegistry(registry_);
  }
  /// Live degraded-mode check: unlike metrics().Degraded(), this also sees
  /// abandoned flushes that happened since ResetStats() but before
  /// FinishRun() copied the WAL stats over.
  bool Degraded() const {
    return metrics_.Degraded() ||
           log_->stats().flush_failures > log_baseline_.flush_failures;
  }
  wal::LogManager* log() { return log_.get(); }
  /// Null unless config.fault_plan is non-empty.
  sim::FaultInjector* fault_injector() { return fault_.get(); }
  txn::XctManager& xct_manager() { return *xm_; }
  txn::LockManager* lock_manager() { return lm_.get(); }
  dora::Executor* executor() { return executor_.get(); }
  hw::TreeProbeUnit* probe_unit() { return probe_unit_.get(); }
  hw::LogInsertionUnit* log_unit() { return log_unit_.get(); }
  hw::QueueEngine* queue_engine() { return queue_engine_.get(); }
  hw::ScannerUnit* scanner_unit() { return scanner_unit_.get(); }
  storage::BufferPool* buffer_pool() { return bpool_.get(); }
  storage::SimDisk* data_disk() { return data_disk_.get(); }

  /// Deterministic partition of a key (0 for the conventional engine).
  /// Workloads must group a step's keys by partition: DORA's local locks
  /// are only sound when every access to a key lands on the same agent.
  uint32_t PartitionOf(const Table* table, Slice key) const {
    if (!executor_) return 0;
    // Must agree with the executor's routing, which hashes the action's
    // qualified first lock key ("t<id>:<key>"); FNV-1a extension over the
    // two fragments equals hashing the concatenation, no string built.
    const TablePrefix prefix(table);
    const Slice p = prefix.slice();
    uint64_t h = common::FnvExtend(common::kFnvOffsetBasis, p.data(), p.size());
    h = common::FnvExtend(h, key.data(), key.size());
    return executor_->Route(h);
  }

  /// True when rows live in the overlay instead of buffer-pooled pages.
  bool UseOverlay() const {
    return config_.mode == EngineMode::kBionic && config_.offload.overlay;
  }
  /// True when index probes run on the hardware tree probe engine.
  bool UseHwProbe() const {
    return config_.mode == EngineMode::kBionic && config_.offload.tree_probe;
  }

  // ------------------------------------------------- threaded backend ----
  /// Attaches (or detaches, with nullptr) the real-thread execution
  /// backend. While attached, every transaction and row/scan operation
  /// runs on the threaded substrate: the same lifecycle and functional core
  /// under per-table reader/writer locks, actions dispatched to the
  /// backend's agents, no virtual-time cost charges or device waits,
  /// logging through the backend's ThreadedWal. Call after tables are
  /// created and loaded; normally done by exec::ThreadedBackend::Start()/
  /// Shutdown(). See docs/EXECUTION.md.
  void AttachThreadedBackend(exec::ThreadedBackend* backend);
  bool threaded() const { return threaded_ != nullptr; }
  exec::ThreadedBackend* threaded_backend() { return threaded_; }

 private:
  // ---- substrate hooks ----------------------------------------------------
  // Every op, and the transaction lifecycle around them, is one coroutine
  // for both substrates. On the simulator the cost helpers and device waits
  // suspend and the guards below are empty. On threads (threaded_ set)
  // nothing suspends: the cost helpers return at once, device waits (buffer
  // pool, disk, PCIe, scanner) are skipped, and the guards take the real
  // locks. A guard may therefore span a co_await.
  // Table guards are never held across a log append or another table's
  // guard, and never taken while the disk guard is held.
  using SharedGuard = std::shared_lock<std::shared_mutex>;
  using ExclusiveGuard = std::unique_lock<std::shared_mutex>;
  /// Guard on a table's physical structures (B+Trees, overlay arena, page
  /// contents).
  SharedGuard ReadLock(const Table* table) {
    return threaded_ ? SharedGuard(TableMutex(table)) : SharedGuard();
  }
  ExclusiveGuard WriteLock(const Table* table) {
    return threaded_ ? ExclusiveGuard(TableMutex(table)) : ExclusiveGuard();
  }
  /// Guard on the SimDisk page map (see disk_mu_).
  SharedGuard DiskReadLock() {
    return threaded_ ? SharedGuard(disk_mu_) : SharedGuard();
  }
  ExclusiveGuard DiskWriteLock() {
    return threaded_ ? ExclusiveGuard(disk_mu_) : ExclusiveGuard();
  }
  /// Guards for a row write: the table, plus the page map when the row
  /// lives in base storage (a relocating BasePut allocates a page).
  struct RowWriteGuard {
    ExclusiveGuard table;
    ExclusiveGuard disk;
  };
  RowWriteGuard LockRowWrite(const Table* table) {
    RowWriteGuard g;
    if (threaded_) {
      g.table = ExclusiveGuard(TableMutex(table));
      if (!table->rows_in_overlay()) g.disk = ExclusiveGuard(disk_mu_);
    }
    return g;
  }
  /// Guard on a transaction's log and undo state, which its concurrently
  /// running actions share on threads.
  std::unique_lock<std::mutex> XctLock(txn::Xct* xct) {
    return threaded_ ? std::unique_lock<std::mutex>(xct->mu)
                     : std::unique_lock<std::mutex>();
  }
  /// The view an op returns. On threads other threads may move the bytes
  /// once the table guard drops, so it is copied to a per-thread scratch
  /// ring (call under the guard); on the simulator it is returned as is.
  Slice StableView(Slice v) { return threaded_ ? ScratchCopy(v) : v; }

  // Threads-only substrate (engine_threaded.cc).
  std::shared_mutex& TableMutex(const Table* table);
  static Slice ScratchCopy(Slice v);

  // ---- cost helpers -------------------------------------------------------
  // On threads (and for zero cost) each returns an empty task, complete as
  // soon as it is awaited, so the hot path builds no coroutine frame for
  // it; the simulator runs the timed coroutine (the Sim* twin).
  /// Executes `ns` of CPU work charged to component `c`. Attaches a core
  /// unless the context already holds one.
  sim::Task<void> CpuWork(ExecContext& ctx, double ns, hw::Component c) {
    if (threaded_ || static_cast<SimTime>(ns) <= 0) return {};
    return SimCpuWork(ctx, static_cast<SimTime>(ns), c);
  }
  /// Charges CPU energy + breakdown without occupying a core (front-end /
  /// driver-side work).
  sim::Task<void> CpuWorkNoCore(double ns, hw::Component c) {
    if (threaded_ || static_cast<SimTime>(ns) <= 0) return {};
    return SimCpuWorkNoCore(static_cast<SimTime>(ns), c);
  }

  /// Index probe timing for `levels` node visits (software cost model or
  /// hardware probe engine round trip). `key_bytes` sizes the comparator
  /// work for variable-length keys.
  sim::Task<void> ProbeCost(ExecContext& ctx, int levels,
                            uint32_t key_bytes = 8) {
    if (threaded_) return {};
    return SimProbeCost(ctx, levels, key_bytes);
  }
  sim::Task<void> SimCpuWork(ExecContext& ctx, SimTime t, hw::Component c);
  sim::Task<void> SimCpuWorkNoCore(SimTime t, hw::Component c);
  sim::Task<void> SimProbeCost(ExecContext& ctx, int levels,
                               uint32_t key_bytes);

  /// Append to the WAL (and the undo chain), charging elapsed time to the
  /// Log component on the simulator.
  sim::Task<Status> LogWrite(ExecContext& ctx, wal::RecordType type,
                             Table* table, Slice key, Slice redo, Slice undo);

  sim::Task<void> MultiReadOne(ExecContext ctx, Table* table, std::string key,
                               Result<std::string>* out, int* remaining,
                               sim::Completion* done);

  /// Overlay read with §5.6 miss handling (abort -> software fetch from
  /// base -> install -> retry). Returns a view into the overlay leaf arena.
  sim::Task<Result<Slice>> ReadOverlayView(ExecContext& ctx, Table* table,
                                           Slice key);
  /// Base-storage read (buffer-pooled page, or compact slab). Returns a
  /// view into the row's slotted page or slab entry.
  sim::Task<Result<Slice>> ReadPagedView(ExecContext& ctx, Table* table,
                                         Slice key);

  /// Rolls back one undo entry (Table::ApplyUndo under the row guards).
  void ApplyUndo(const txn::UndoEntry& entry);

  sim::Task<Status> AbortTxn(BranchHandle* h);
  sim::Task<Status> CommitTxn(BranchHandle* h);
  sim::Task<void> ReleaseAllLocks(txn::Xct* xct);

  sim::Task<Status> RunPhaseConventional(const Phase& phase,
                                         ExecContext& ctx);
  sim::Task<Status> RunPhaseDora(const Phase& phase, ExecContext& ctx);
  sim::Task<Status> RunAllPhases(const TxnSpec& spec, ExecContext& ctx);

  /// The "t<id>:" prefix that qualifies a row key with its table: DORA
  /// lock keys, 2PL lock names and partition routing all use this one
  /// format. Built in place, no allocation.
  class TablePrefix {
   public:
    explicit TablePrefix(const Table* table)
        : n_(static_cast<size_t>(
              std::snprintf(buf_, sizeof(buf_), "t%u:", table->id()))) {}
    Slice slice() const { return Slice(buf_, n_); }

   private:
    char buf_[16];
    size_t n_;
  };
  /// "t<id>:<key>" as a string (2PL lock names).
  static std::string QualifiedKey(const Table* table, Slice key);

  /// Binds every RunMetrics field, breakdown component, WAL/fault counter,
  /// and platform gauge into registry_ (construction time, once).
  void RegisterMetrics();
  /// Ticks sampler_ at config.trace.sample_interval_ns until Shutdown.
  sim::Task<void> SamplerLoop();
  /// Ticks profiler_ at config.profile.interval_ns until Shutdown.
  sim::Task<void> ProfilerLoop();

  sim::Simulator* sim_;
  EngineConfig config_;
  /// Created before the platform so links/units can intern at setup time.
  std::unique_ptr<obs::Tracer> tracer_;
  /// Must outlive platform_ (links keep a raw pointer); declared first.
  std::unique_ptr<sim::FaultInjector> fault_;
  std::unique_ptr<hw::Platform> platform_;
  std::unique_ptr<storage::SimDisk> data_disk_;
  std::unique_ptr<storage::SimDisk> log_disk_;
  std::unique_ptr<storage::BufferPool> bpool_;
  std::unique_ptr<Database> db_;

  std::unique_ptr<hw::TreeProbeUnit> probe_unit_;
  std::unique_ptr<hw::LogInsertionUnit> log_unit_;
  std::unique_ptr<hw::QueueEngine> queue_engine_;
  std::unique_ptr<hw::ScannerUnit> scanner_unit_;

  std::unique_ptr<wal::LogManager> log_;
  std::unique_ptr<txn::XctManager> xm_;
  std::unique_ptr<txn::LockManager> lm_;
  std::unique_ptr<dora::Executor> executor_;

  /// Conventional mode: admission throttle modeling the worker pool.
  std::unique_ptr<sim::Semaphore> workers_sem_;

  /// Open-loop bounded admission queue (config.admission.enabled only).
  std::unique_ptr<AdmissionQueue<AdmittedTxn>> admission_;

  /// Real-thread backend, when attached (never set on simulator runs; the
  /// ops' `threaded_` branches are always false there, keeping simulated
  /// results bit-identical).
  exec::ThreadedBackend* threaded_ = nullptr;
  /// Per-table reader/writer locks for the threaded substrate, indexed by
  /// table id. Sized in AttachThreadedBackend.
  std::vector<std::unique_ptr<std::shared_mutex>> table_mu_;
  /// Engine-wide lock for the SimDisk page MAP, which every paged table
  /// shares and the per-table locks therefore cannot cover. BasePut can
  /// AllocPage (map insert) → exclusive; all other base-data access only
  /// looks pages up → shared. Page CONTENTS need no disk lock: a page
  /// belongs to exactly one table and is guarded by that table's mutex.
  /// Always acquired inside a table-lock scope, never the reverse.
  std::shared_mutex disk_mu_;

  hw::Breakdown breakdown_;
  RunMetrics metrics_;
  obs::Registry registry_;
  std::unique_ptr<obs::TimelineSampler> sampler_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::Profiler> profiler_;
  bool sampler_running_ = false;
  SimTime epoch_ = 0;
  /// Measurement-window baselines, snapped in ResetStats(): the WAL and the
  /// fault injector count cumulatively from construction, so FinishRun()
  /// subtracts these to keep warmup out of the reported window.
  wal::LogStats log_baseline_;
  uint64_t faults_baseline_ = 0;
  /// "engine/txn" async-span interning (one begin/end pair per Execute).
  uint16_t trace_txn_track_ = 0;
  uint16_t trace_txn_name_ = 0;
  uint16_t trace_commit_name_ = 0;
  uint16_t trace_abort_name_ = 0;
  uint8_t trace_txn_cat_ = 0;
  uint64_t trace_txn_seq_ = 0;
};

}  // namespace bionicdb::engine
