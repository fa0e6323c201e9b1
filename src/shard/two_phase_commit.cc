#include "shard/two_phase_commit.h"

#include <algorithm>
#include <utility>

#include "obs/timeline.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bionicdb::shard {

namespace {

/// Per-branch results collected at the execute/prepare join.
struct BranchOutcome {
  Status exec = Status::OK();
  Status vote = Status::OK();
  SimTime done_ts = 0;  ///< When this branch finished execute (+prepare).
};

/// One fan-out branch: execute on the home shard, then (2PC only) append
/// the durable yes-vote immediately — overlapped with sibling branches
/// still executing. Safe under presumed abort: if a sibling later fails,
/// this branch's durable kPrepare resolves to abort (no decision record
/// will ever exist) and FinishBranch(false) undoes it in place.
/// Plain namespace-scope coroutine (not a capturing lambda): every
/// pointer and reference argument lives in Run's frame, which outlives the
/// join.
sim::Task<void> RunBranchTask(engine::Engine* eng,
                              engine::Engine::BranchHandle* h,
                              const engine::Engine::TxnSpec& spec, int socket,
                              uint64_t* priority, uint64_t gtid, bool prepare,
                              BranchOutcome* out, int* remaining,
                              sim::Completion* done) {
  out->exec = co_await eng->ExecuteBranch(h, spec, socket, priority);
  if (prepare && out->exec.ok()) {
    out->vote = co_await eng->PrepareBranch(h, gtid);
  }
  out->done_ts = eng->simulator()->Now();
  if (--*remaining == 0) done->Set();
}

/// One fan-out phase-2 branch: charge the decision->finish stall, then
/// commit (or abort) locally.
sim::Task<void> FinishBranchTask(engine::Engine* eng,
                                 engine::Engine::BranchHandle* h, bool commit,
                                 SimTime decision_ts, Status* out,
                                 int* remaining, sim::Completion* done) {
  if (h->tl != nullptr) {
    h->tl->Charge(obs::Stage::kTwoPCFinish,
                  eng->simulator()->Now() - decision_ts);
  }
  *out = co_await eng->FinishBranch(h, commit);
  if (--*remaining == 0) done->Set();
}

}  // namespace

void TwoPhaseCommit::OrderFragments(ShardedTxn* txn) {
  // Ascending shard order. No longer needed for deadlock freedom (the
  // shared pinned wait-die priority covers that — see the header), but it
  // keeps the coordinator choice and gtid draw deterministic regardless of
  // how the caller ordered its fragments.
  std::sort(txn->fragments.begin(), txn->fragments.end(),
            [](const ShardFragment& a, const ShardFragment& b) {
              return a.shard < b.shard;
            });
  for (size_t i = 1; i < txn->fragments.size(); ++i) {
    BIONICDB_CHECK_MSG(
        txn->fragments[i].shard != txn->fragments[i - 1].shard,
        "two fragments routed to shard %d: merge them into one spec",
        txn->fragments[i].shard);
  }
}

uint64_t* TwoPhaseCommit::PinPriority(int coord, uint64_t* priority,
                                      uint64_t* local) {
  uint64_t* prio = priority != nullptr ? priority : local;
  if (*prio == 0) {
    // Draw the shared wait-die timestamp up front: concurrently spawned
    // branches would otherwise race to assign it from whichever branch's
    // Begin() ran first (ExecuteBranch suspends before Begin).
    *prio = shards_[static_cast<size_t>(coord)]->xct_manager().DrawPriority();
  }
  return prio;
}

bool TwoPhaseCommit::IsReadOnlyTxn(const ShardedTxn& txn) {
  for (const ShardFragment& frag : txn.fragments) {
    if (frag.spec.dynamic_phases) return false;
    for (const engine::Engine::Phase& phase : frag.spec.phases) {
      for (const engine::Engine::TxnStep& step : phase) {
        if (!step.read_only) return false;
      }
    }
  }
  return true;
}

sim::Task<Status> TwoPhaseCommit::Run(ShardedTxn txn, int socket,
                                      uint64_t* priority) {
  BIONICDB_CHECK(txn.fragments.size() >= 2);
  OrderFragments(&txn);
  const uint64_t gtid = next_gtid_++;
  ++stats_.started;
  if (fanout_) {
    co_return co_await RunFanout(std::move(txn), socket, gtid, priority);
  }
  co_return co_await RunSequential(std::move(txn), socket, gtid, priority);
}

sim::Task<void> TwoPhaseCommit::AbortAll(
    std::vector<engine::Engine::BranchHandle>* branches,
    const ShardedTxn& txn, size_t n, bool parallel) {
  if (!parallel) {
    for (size_t i = 0; i < n; ++i) {
      co_await shards_[static_cast<size_t>(txn.fragments[i].shard)]
          ->FinishBranch(&(*branches)[i], /*commit=*/false);
    }
    co_return;
  }
  sim::Simulator* sim = shards_[0]->simulator();
  sim::Completion done(sim);
  int remaining = static_cast<int>(n) - 1;
  std::vector<Status> sts(n, Status::OK());
  const SimTime now = sim->Now();
  for (size_t i = 1; i < n; ++i) {
    sim->Spawn(FinishBranchTask(
        shards_[static_cast<size_t>(txn.fragments[i].shard)], &(*branches)[i],
        /*commit=*/false, now, &sts[i], &remaining, &done));
  }
  co_await shards_[static_cast<size_t>(txn.fragments[0].shard)]->FinishBranch(
      &(*branches)[0], /*commit=*/false);
  if (n > 1) co_await done.Wait();
}

sim::Task<Status> TwoPhaseCommit::RunFanout(ShardedTxn txn, int socket,
                                            uint64_t gtid,
                                            uint64_t* priority) {
  const size_t n = txn.fragments.size();
  const int coord = txn.fragments[0].shard;
  sim::Simulator* sim = shards_[0]->simulator();
  uint64_t local_prio = 0;
  uint64_t* prio = PinPriority(coord, priority, &local_prio);

  std::vector<engine::Engine::BranchHandle> branches(n);
  std::vector<BranchOutcome> outcomes(n);

  // --- Execute + phase 1, all branches concurrent. ------------------------
  // Non-coordinator fragments are spawned onto the shared simulator; the
  // coordinator's fragment runs inline (no self-hop) and appends its
  // prepare without a durability wait — the decision record on the same
  // log covers it (see PrepareBranch's contract).
  sim::Completion exec_done(sim);
  int exec_remaining = static_cast<int>(n) - 1;
  for (size_t i = 1; i < n; ++i) {
    ShardFragment& frag = txn.fragments[i];
    sim->Spawn(RunBranchTask(shards_[static_cast<size_t>(frag.shard)],
                             &branches[i], frag.spec, socket, prio,
                             gtid, /*prepare=*/true, &outcomes[i],
                             &exec_remaining, &exec_done));
  }
  {
    engine::Engine* ceng = shards_[static_cast<size_t>(coord)];
    outcomes[0].exec = co_await ceng->ExecuteBranch(
        &branches[0], txn.fragments[0].spec, socket, prio);
    if (outcomes[0].exec.ok()) {
      outcomes[0].vote = co_await ceng->PrepareBranch(&branches[0], gtid,
                                                      /*wait_durable=*/false);
    }
    outcomes[0].done_ts = sim->Now();
  }
  co_await exec_done.Wait();
  const SimTime join_ts = sim->Now();
  for (size_t i = 0; i < n; ++i) {
    if (branches[i].tl != nullptr) {
      branches[i].tl->Charge(obs::Stage::kTwoPCExec,
                             join_ts - outcomes[i].done_ts);
    }
  }

  // --- Classify failures in fragment order (deterministic attribution). ---
  Status st = Status::OK();
  bool exec_failed = false;
  for (size_t i = 0; i < n && st.ok(); ++i) {
    if (!outcomes[i].exec.ok()) {
      st = outcomes[i].exec;
      exec_failed = true;
    } else if (!outcomes[i].vote.ok()) {
      st = outcomes[i].vote;
    }
  }
  if (!st.ok()) {
    if (exec_failed) {
      ++stats_.exec_aborts;
    } else {
      ++stats_.vote_failures;
    }
    ++stats_.aborted;
    co_await AbortAll(&branches, txn, n, /*parallel=*/true);
    co_return st;
  }

  // --- Decision: durable on the coordinator before ANY branch commits. ----
  st = co_await shards_[static_cast<size_t>(coord)]->LogCoordCommit(
      &branches[0], gtid);
  const SimTime decision_ts = sim->Now();
  for (size_t i = 1; i < n; ++i) {
    if (branches[i].tl != nullptr) {
      branches[i].tl->Charge(obs::Stage::kTwoPCDecision,
                             decision_ts - join_ts);
    }
  }
  if (!st.ok()) {
    // The decision never became durable: presumed abort, cluster-wide.
    ++stats_.decision_failures;
    ++stats_.aborted;
    co_await AbortAll(&branches, txn, n, /*parallel=*/true);
    co_return st;
  }

  // --- Phase 2: local commits, fanned out. The outcome is already
  // decided; a branch whose commit record fails durability is repaired
  // from the decision record at recovery (prepare + decision ==
  // committed), so the transaction still reports success.
  sim::Completion finish_done(sim);
  int finish_remaining = static_cast<int>(n) - 1;
  std::vector<Status> finish_sts(n, Status::OK());
  for (size_t i = 1; i < n; ++i) {
    sim->Spawn(FinishBranchTask(
        shards_[static_cast<size_t>(txn.fragments[i].shard)], &branches[i],
        /*commit=*/true, decision_ts, &finish_sts[i], &finish_remaining,
        &finish_done));
  }
  if (branches[0].tl != nullptr) {
    branches[0].tl->Charge(obs::Stage::kTwoPCFinish,
                           sim->Now() - decision_ts);
  }
  finish_sts[0] = co_await shards_[static_cast<size_t>(coord)]->FinishBranch(
      &branches[0], /*commit=*/true);
  co_await finish_done.Wait();
  ++stats_.committed;

  // --- Forget: retire the decision record once every branch's commit is
  // durable. Skipped when any branch's commit durability failed — that
  // branch still needs the decision for repair at recovery.
  bool all_durable = true;
  for (const Status& fst : finish_sts) {
    if (!fst.ok()) all_durable = false;
  }
  if (all_durable) {
    co_await shards_[static_cast<size_t>(coord)]->LogCoordForget(gtid,
                                                                 socket);
    ++stats_.decisions_retired;
  }
  co_return Status::OK();
}

sim::Task<Status> TwoPhaseCommit::RunSequential(ShardedTxn txn, int socket,
                                                uint64_t gtid,
                                                uint64_t* priority) {
  const size_t n = txn.fragments.size();
  const int coord = txn.fragments[0].shard;
  sim::Simulator* sim = shards_[0]->simulator();
  uint64_t local_prio = 0;
  uint64_t* prio = PinPriority(coord, priority, &local_prio);

  std::vector<engine::Engine::BranchHandle> branches(n);
  std::vector<SimTime> done_ts(n, 0);

  // --- Execute: sequentially, ascending shard order (PR 9 baseline). ------
  Status st = Status::OK();
  size_t ran = 0;
  for (size_t i = 0; i < n; ++i) {
    ShardFragment& frag = txn.fragments[i];
    st = co_await shards_[static_cast<size_t>(frag.shard)]->ExecuteBranch(
        &branches[i], frag.spec, socket, prio);
    done_ts[i] = sim->Now();
    ++ran;
    if (!st.ok()) break;
  }
  if (!st.ok()) {
    ++stats_.exec_aborts;
    ++stats_.aborted;
    co_await AbortAll(&branches, txn, ran, /*parallel=*/false);
    co_return st;
  }
  // Branch-join stall: own fragment done, later siblings still executing.
  const SimTime exec_end = sim->Now();
  for (size_t i = 0; i < n; ++i) {
    if (branches[i].tl != nullptr) {
      branches[i].tl->Charge(obs::Stage::kTwoPCExec, exec_end - done_ts[i]);
    }
  }

  // --- Phase 1: durable yes-votes, sequential. ----------------------------
  for (size_t i = 0; i < n; ++i) {
    st = co_await shards_[static_cast<size_t>(txn.fragments[i].shard)]
             ->PrepareBranch(&branches[i], gtid);
    if (!st.ok()) break;
  }
  if (!st.ok()) {
    ++stats_.vote_failures;
    ++stats_.aborted;
    co_await AbortAll(&branches, txn, n, /*parallel=*/false);
    co_return st;
  }

  // --- Decision: durable on the coordinator before ANY branch commits. ----
  const SimTime decision0 = sim->Now();
  st = co_await shards_[static_cast<size_t>(coord)]->LogCoordCommit(
      &branches[0], gtid);
  const SimTime decision_ts = sim->Now();
  for (size_t i = 1; i < n; ++i) {
    if (branches[i].tl != nullptr) {
      branches[i].tl->Charge(obs::Stage::kTwoPCDecision,
                             decision_ts - decision0);
    }
  }
  if (!st.ok()) {
    ++stats_.decision_failures;
    ++stats_.aborted;
    co_await AbortAll(&branches, txn, n, /*parallel=*/false);
    co_return st;
  }

  // --- Phase 2: local commits, sequential. --------------------------------
  bool all_durable = true;
  for (size_t i = 0; i < n; ++i) {
    if (branches[i].tl != nullptr) {
      branches[i].tl->Charge(obs::Stage::kTwoPCFinish,
                             sim->Now() - decision_ts);
    }
    Status fst = co_await shards_[static_cast<size_t>(txn.fragments[i].shard)]
                     ->FinishBranch(&branches[i], /*commit=*/true);
    if (!fst.ok()) all_durable = false;
  }
  ++stats_.committed;
  if (all_durable) {
    co_await shards_[static_cast<size_t>(coord)]->LogCoordForget(gtid,
                                                                 socket);
    ++stats_.decisions_retired;
  }
  co_return Status::OK();
}

sim::Task<Status> TwoPhaseCommit::RunSnapshotRead(ShardedTxn txn, int socket,
                                                  uint64_t* priority) {
  BIONICDB_CHECK(txn.fragments.size() >= 2);
  BIONICDB_CHECK_MSG(IsReadOnlyTxn(txn),
                     "RunSnapshotRead requires a fully read-only txn");
  OrderFragments(&txn);
  ++snap_stats_.started;
  const size_t n = txn.fragments.size();
  const int coord = txn.fragments[0].shard;
  sim::Simulator* sim = shards_[0]->simulator();
  uint64_t local_prio = 0;
  uint64_t* prio = PinPriority(coord, priority, &local_prio);

  std::vector<engine::Engine::BranchHandle> branches(n);
  std::vector<BranchOutcome> outcomes(n);

  // --- Execute all fragments concurrently (no prepare: nothing to make
  // durable, so there is no phase 1 and no decision). -----------------------
  sim::Completion exec_done(sim);
  int exec_remaining = static_cast<int>(n) - 1;
  for (size_t i = 1; i < n; ++i) {
    ShardFragment& frag = txn.fragments[i];
    sim->Spawn(RunBranchTask(shards_[static_cast<size_t>(frag.shard)],
                             &branches[i], frag.spec, socket, prio,
                             /*gtid=*/0, /*prepare=*/false, &outcomes[i],
                             &exec_remaining, &exec_done));
  }
  outcomes[0].exec = co_await shards_[static_cast<size_t>(coord)]
                         ->ExecuteBranch(&branches[0],
                                         txn.fragments[0].spec,
                                         socket, prio);
  outcomes[0].done_ts = sim->Now();
  co_await exec_done.Wait();

  // The join point IS the snapshot: every fragment holds its shared locks
  // right now, so under strict 2PL no writer committed between any two
  // fragments' reads — this instant is the transaction's consistent
  // virtual-time read point.
  const SimTime join_ts = sim->Now();
  for (size_t i = 0; i < n; ++i) {
    if (branches[i].tl != nullptr) {
      branches[i].tl->Charge(obs::Stage::kTwoPCExec,
                             join_ts - outcomes[i].done_ts);
    }
  }

  Status st = Status::OK();
  for (size_t i = 0; i < n && st.ok(); ++i) {
    if (!outcomes[i].exec.ok()) st = outcomes[i].exec;
  }
  if (!st.ok()) {
    ++snap_stats_.aborted;
    co_await AbortAll(&branches, txn, n, /*parallel=*/true);
    co_return st;
  }

  // --- Release: read-only commit on every branch — zero WAL traffic, no
  // 2PC record of any kind. -------------------------------------------------
  sim::Completion finish_done(sim);
  int finish_remaining = static_cast<int>(n) - 1;
  std::vector<Status> finish_sts(n, Status::OK());
  for (size_t i = 1; i < n; ++i) {
    sim->Spawn(FinishBranchTask(
        shards_[static_cast<size_t>(txn.fragments[i].shard)], &branches[i],
        /*commit=*/true, join_ts, &finish_sts[i], &finish_remaining,
        &finish_done));
  }
  finish_sts[0] = co_await shards_[static_cast<size_t>(coord)]->FinishBranch(
      &branches[0], /*commit=*/true);
  co_await finish_done.Wait();
  ++snap_stats_.committed;
  co_return Status::OK();
}

}  // namespace bionicdb::shard
