// ThreadedBackend: the real-thread execution backend. One std::thread agent
// per DORA partition, real MPSC mailboxes, a real group-commit WAL flusher.
// Runs the same engine/DORA/workload code as the simulator; the simulator
// remains the determinism oracle (see docs/EXECUTION.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/status.h"
#include "dora/action.h"
#include "dora/partition.h"
#include "engine/engine.h"
#include "exec/context.h"
#include "exec/mpsc_queue.h"
#include "exec/threaded_wal.h"
#include "queueing/mpmc.h"

namespace bionicdb::exec {

/// Wall-clock run counters. The transaction counts are the engine's own
/// (engine::RunMetrics and txn::XctManagerStats, which the shared lifecycle
/// bumps on both substrates) since the engine was built; the action counts
/// are the agents'.
struct ThreadedStats {
  uint64_t started = 0;
  uint64_t commits = 0;
  uint64_t read_only_commits = 0;
  uint64_t aborts = 0;
  uint64_t wait_die_aborts = 0;
  uint64_t io_errors = 0;
  uint64_t durability_failures = 0;
  uint64_t actions_executed = 0;
  uint64_t actions_parked = 0;
};

/// Drives an Engine on real host threads. Construction wires one
/// dora::Partition (lock + park tables; the partition's SimQueue is unused)
/// and one MPSC mailbox per engine partition; Start() spawns the agent
/// threads and the WAL flusher.
///
/// The backend is a substrate, not a second engine: Execute runs the
/// engine's own transaction lifecycle (Engine::Execute — phases, RVPs,
/// commit and abort through the XctManager) on the calling thread, and the
/// engine branches to this class only to dispatch actions to the agents,
/// release their locks, and log through the ThreadedWal. Functional
/// behavior therefore matches the simulator backend exactly — same
/// routing (dora::Executor::Route), same wait-die policy via the shared
/// dora::Partition code, same log records byte for byte — which is what
/// the differential oracle test (tests/exec_backend_test.cc) pins down.
/// Timing behavior is the host's: no cost model, no virtual clock.
class ThreadedBackend {
 public:
  struct Config {
    /// Partition mailbox depth (actions + release messages in flight).
    size_t queue_capacity = 4096;
    ThreadedWal::Config wal;
  };

  struct RunOptions {
    int clients = 8;
    uint64_t warmup_txns = 200;
    uint64_t measured_txns = 2000;
    int max_retries = 30;
    uint64_t retry_backoff_ns = 20000;
  };

  /// Measured-window report from RunClosedLoop.
  struct RunReport {
    uint64_t committed = 0;
    uint64_t aborted_attempts = 0;
    double elapsed_s = 0.0;
    double txn_per_sec = 0.0;
    /// Wall-clock end-to-end transaction latency (ns), retries included.
    Histogram latency;
    ThreadedWal::Stats wal;
  };

  ThreadedBackend(engine::Engine* engine, const Config& config);
  ~ThreadedBackend();
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(ThreadedBackend);

  /// Spawns the partition agents and the WAL flusher, and attaches this
  /// backend to the engine (flipping its ops onto the threaded paths).
  /// Call after tables are created and loaded.
  void Start();

  /// Drains agents (all submitted transactions must have completed), joins
  /// every thread, flushes and stops the WAL, and detaches from the engine.
  void Shutdown();

  /// Runs one transaction to commit or abort on the calling thread
  /// (Engine::Execute, run to completion), dispatching phase actions to the
  /// partition agents. Thread-safe: any number of client threads may call
  /// concurrently. `priority` carries the wait-die timestamp across
  /// retries, as in Engine::Execute.
  Status Execute(const engine::Engine::TxnSpec& spec,
                 uint64_t* priority = nullptr);

  /// Closed-loop driver: `clients` real threads, warmup wave (not counted),
  /// then a measured wave. `next` is called under an internal mutex to draw
  /// each transaction (workload generators are not thread-safe).
  RunReport RunClosedLoop(const std::function<engine::Engine::TxnSpec()>& next,
                          const RunOptions& options);

  /// Wall-clock open-loop driver (the threaded mirror of
  /// workload::RunOpenLoop): one arrival thread generates Poisson arrivals
  /// at `offered_tps` through a bounded mutex/condvar admission queue
  /// (full => shed), `servers` worker threads drain it. Time is the host's
  /// steady clock; arrivals keep coming whether or not servers keep up.
  struct OpenLoopOptions {
    double offered_tps = 20000;
    double warmup_s = 0.1;    ///< Arrivals flow, nothing is counted.
    double duration_s = 0.5;  ///< Measured window.
    size_t queue_depth = 256;
    int servers = 4;
    uint64_t seed = 0x0bee5eed;
    int max_retries = 30;
    uint64_t retry_backoff_ns = 20000;
  };

  struct OpenLoopReport {
    // Counters over the measured window (arrival-time attributed).
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t completed = 0;
    uint64_t committed = 0;
    double elapsed_s = 0.0;   ///< Measured window + residual drain.
    double goodput_tps = 0.0; ///< committed / elapsed_s.
    /// Wall-clock sojourn (enqueue -> final status, ns) of completed
    /// requests that arrived inside the window.
    Histogram sojourn;
  };

  OpenLoopReport RunOpenLoop(
      const std::function<engine::Engine::TxnSpec()>& next,
      const OpenLoopOptions& options);

  // Dispatch primitives (the threaded analogue of dora::Executor's public
  // surface; exercised directly by tests/dispatch_alloc_test.cc).
  /// Hands out a pooled action: lock-free freelist fast path, allocation
  /// only while the pool warms up.
  dora::Action* AcquireAction();
  /// Resets the action and returns it to the freelist.
  void ReleaseAction(dora::Action* action);
  /// Routes by the action's first (sorted) lock key with the engine
  /// executor's Route and enqueues it on the owning partition's mailbox.
  /// The action's rvp must be a threaded dora::Rvp.
  void Dispatch(dora::Action* action);
  /// Sends release messages to every partition holding locks for `xct` and
  /// blocks until all have processed them (the transaction must not finish
  /// before its locks are gone). No-op in conventional mode.
  void ReleaseTxnLocks(txn::Xct* xct);
  /// Conventional mode: one global transaction mutex stands in for the 2PL
  /// lock manager, whose waits are simulated (see docs/EXECUTION.md). The
  /// engine's lifecycle takes and drops it.
  std::mutex& conventional_mutex() { return conventional_mu_; }

  engine::Engine* engine() { return engine_; }
  ThreadedWal& wal() { return wal_; }
  Context& context() { return context_; }
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(partitions_.size());
  }
  ThreadedStats stats() const;
  /// Total actions ever allocated (steady state: stops growing once the
  /// pool has warmed up — asserted by tests/dispatch_alloc_test.cc).
  size_t actions_allocated() const;

  dora::Partition* partition(uint32_t id) { return partitions_[id].get(); }

 private:
  /// Partition mailbox message. Exactly one meaning:
  ///  kAction  — run/lock this action;
  ///  kRelease — release `release_xct`'s locks on this partition, wake
  ///             parked actions, then arrive at `released`;
  ///  kStop    — agent poison pill.
  struct Msg {
    enum class Kind : uint8_t { kStop = 0, kAction, kRelease };
    Kind kind = Kind::kStop;
    dora::Action* action = nullptr;
    txn::Xct* release_xct = nullptr;
    dora::Rvp* released = nullptr;
  };

  void AgentLoop(uint32_t pid);
  void HandleAction(dora::Partition& part, dora::Action* action);

  /// Runs `spec` to a final status on the calling thread: a wait-die abort
  /// re-executes it up to `max_retries` times with its priority pinned (so
  /// it ages), sleeping RetryBackoffNs(backoff_ns, attempt, *rng) between
  /// attempts. Adds the aborted executions to `*aborted_attempts` unless
  /// it is null. Both wall-clock drivers retry through here.
  Status ExecuteWithRetries(const engine::Engine::TxnSpec& spec,
                            int max_retries, uint64_t backoff_ns, Rng* rng,
                            uint64_t* aborted_attempts);

  engine::Engine* engine_;
  Config config_;
  ThreadedContext context_;
  ThreadedWal wal_;
  std::vector<std::unique_ptr<dora::Partition>> partitions_;
  std::vector<std::unique_ptr<MpscBlockingQueue<Msg>>> queues_;
  std::vector<std::thread> agents_;
  bool started_ = false;

  /// Thread-safe action freelist: lock-free ring fast path, fallback
  /// allocation under pool_mu_ only while warming up.
  queueing::MpmcQueue<dora::Action*> free_actions_;
  mutable std::mutex pool_mu_;
  std::vector<std::unique_ptr<dora::Action>> all_actions_;

  /// See conventional_mutex().
  std::mutex conventional_mu_;
  /// Draws from the workload generator in RunClosedLoop.
  std::mutex next_mu_;

  // Agent-side stats as atomics (snapshotted by stats()).
  std::atomic<uint64_t> wait_die_aborts_{0};
  std::atomic<uint64_t> actions_executed_{0};
  std::atomic<uint64_t> actions_parked_{0};
};

}  // namespace bionicdb::exec
