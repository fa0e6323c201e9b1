// Actions and rendezvous points: the units of data-oriented execution
// ([10, 11], the paper's §5 starting point).
//
// A transaction is decomposed into actions, each touching data of exactly
// one logical partition. Actions of one phase run in parallel on their
// partitions and join at a rendezvous point (RVP); the next phase launches
// when the RVP fires. At most one agent thread ever touches a partition's
// data, so actions need no latches — only cheap partition-local locks held
// until commit.
//
// Actions are pooled (ActionPool) and their lock keys live in a per-action
// byte arena, so the steady-state dispatch cycle — acquire, fill, route,
// execute, release — performs no heap allocations once the pool and arenas
// have warmed up.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/inplace_function.h"
#include "common/slice.h"
#include "common/status.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "txn/xct.h"

namespace bionicdb::dora {

class Partition;

/// Joins `count` actions; the awaiting coroutine (the transaction driver)
/// resumes when the last arrives. The first non-OK status wins. The
/// threaded backend also joins the partitions releasing a transaction's
/// locks with one.
///
/// On the simulator the wait is a sim::Completion. On the threaded backend
/// (`threaded`) the actions arrive from partition agent threads and the
/// driver blocks on a mutex/condvar latch instead; the mutex also carries
/// the happens-before edge from each agent's writes (locks recorded on the
/// Xct, undo entries, table mutations) to the driver past Wait().
class Rvp {
 public:
  Rvp(sim::Simulator* sim, int count, bool threaded = false)
      : remaining_(count), threaded_(threaded), done_(sim) {
    if (count == 0) done_.Set();  // empty phases complete immediately
  }

  /// Called by the executing agent when an action finishes.
  void Arrive(Status st) {
    if (!threaded_) {
      Count(st);
      if (remaining_ == 0) done_.Set();
      return;
    }
    // Notify under the mutex: the driver may destroy the Rvp as soon as it
    // can observe remaining_ == 0.
    std::lock_guard<std::mutex> lk(mu_);
    Count(st);
    if (remaining_ == 0) cv_.notify_one();
  }

  /// Awaited by the transaction driver.
  sim::Task<Status> Wait() {
    if (threaded_) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return remaining_ == 0; });
      co_return agg_;
    }
    co_await done_.Wait();
    co_return agg_;
  }

  int remaining() const { return remaining_; }

 private:
  void Count(const Status& st) {
    if (!st.ok() && agg_.ok()) agg_ = st;
    --remaining_;
  }

  int remaining_;
  const bool threaded_;
  Status agg_;
  sim::Completion done_;
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Execution context handed to an action body by the partition agent.
struct ActionContext {
  txn::Xct* xct = nullptr;
  Partition* partition = nullptr;
  int socket = 0;
};

/// Action bodies are small capture sets (an engine pointer, a step pointer,
/// a socket); 64 bytes of inline storage holds them without allocating.
using ActionFn =
    common::InplaceFunction<sim::Task<Status>(ActionContext&), 64>;

/// One unit of partitioned work.
struct Action {
  txn::Xct* xct = nullptr;
  /// Shared (read) locks instead of exclusive ones.
  bool shared_locks = false;
  ActionFn fn;
  Rvp* rvp = nullptr;
  int socket = 0;
  /// Timeline bookkeeping (obs::TxnTimeline attribution): when the action
  /// entered its partition queue, and — if it parked on a local lock —
  /// when. Plain stores on the dispatch path; only read when the owning
  /// transaction carries a timeline.
  SimTime enqueue_ts = 0;
  SimTime parked_since = 0;

  /// Appends a partition-local lock key (all-or-nothing; held until the
  /// transaction finishes). Keys are stored in the action's byte arena.
  void AddLockKey(Slice key) { AddLockKey(Slice(), key); }

  /// Appends prefix+key as one lock key without materializing the
  /// concatenation anywhere else (used for qualified keys "t<id>:<key>").
  void AddLockKey(Slice prefix, Slice key) {
    const uint32_t off = static_cast<uint32_t>(arena_.size());
    if (prefix.size() != 0) {
      arena_.insert(arena_.end(), prefix.data(), prefix.data() + prefix.size());
    }
    if (key.size() != 0) {
      arena_.insert(arena_.end(), key.data(), key.data() + key.size());
    }
    refs_.push_back({off, static_cast<uint32_t>(prefix.size() + key.size())});
  }

  size_t num_lock_keys() const { return refs_.size(); }

  std::string_view lock_key(size_t i) const {
    return {arena_.data() + refs_[i].off, refs_[i].len};
  }

  /// Sorts the lock keys bytewise. Deterministic lock order across actions
  /// is what makes partition-local wait-die deadlock-free.
  void SortLockKeys() {
    std::sort(refs_.begin(), refs_.end(), [this](const KeyRef& a,
                                                 const KeyRef& b) {
      return std::string_view(arena_.data() + a.off, a.len) <
             std::string_view(arena_.data() + b.off, b.len);
    });
  }

  /// Clears logical state for reuse; arena/ref capacity is retained.
  void Reset() {
    xct = nullptr;
    shared_locks = false;
    fn = nullptr;
    rvp = nullptr;
    socket = 0;
    enqueue_ts = 0;
    parked_since = 0;
    arena_.clear();
    refs_.clear();
  }

 private:
  struct KeyRef {
    uint32_t off;
    uint32_t len;
  };
  std::vector<char> arena_;
  std::vector<KeyRef> refs_;
};

/// Freelist of Actions. Release() resets logical state but keeps each
/// action's arena capacity, so a warmed pool hands out ready-to-fill
/// actions without touching the allocator.
class ActionPool {
 public:
  Action* Acquire() {
    if (free_.empty()) {
      all_.push_back(std::make_unique<Action>());
      return all_.back().get();
    }
    Action* a = free_.back();
    free_.pop_back();
    return a;
  }

  void Release(Action* a) {
    a->Reset();
    free_.push_back(a);
  }

  size_t allocated() const { return all_.size(); }

 private:
  std::vector<std::unique_ptr<Action>> all_;
  std::vector<Action*> free_;
};

}  // namespace bionicdb::dora
