// Closed-loop driver for the sharded cluster. It is RunClosedLoop's own
// client, wave and lifecycle code (workload/driver.cc) instantiated over
// shard::Cluster instead of engine::Engine, so a 1-shard cluster run is
// bit-identical to the unsharded driver (same spawn order, same RNG
// draws, same waves).
//
// The report is per-shard: every transaction is attributed to its HOME
// shard — the lowest shard id it touches, which for a distributed
// transaction is also its 2PC coordinator — so hot or abort-prone shards
// are visible instead of averaged away in a single aggregate.
#pragma once

#include <functional>
#include <vector>

#include "shard/cluster.h"
#include "workload/driver.h"

namespace bionicdb::workload {

/// Produces the next routed transaction to submit.
using NextShardedTxnFn = std::function<shard::ShardedTxn()>;

struct ShardedDriverReport {
  std::vector<DriverReport> per_shard;  ///< Indexed by home shard id.
  uint64_t cross_shard_submitted = 0;

  uint64_t submitted() const { return Sum(&DriverReport::submitted); }
  uint64_t retries() const { return Sum(&DriverReport::retries); }
  uint64_t gave_up() const { return Sum(&DriverReport::gave_up); }
  uint64_t failed() const { return Sum(&DriverReport::failed); }

 private:
  uint64_t Sum(uint64_t DriverReport::*field) const {
    uint64_t n = 0;
    for (const DriverReport& s : per_shard) n += s.*field;
    return n;
  }
};

/// Same lifecycle as RunClosedLoop: Start, preheat, warmup wave,
/// ResetStats, measured wave, FinishRun, Shutdown. Spawn on the
/// simulator and call sim.Run(). Config by value, as for RunClosedLoop.
sim::Task<void> RunShardedClosedLoop(shard::Cluster* cluster,
                                     NextShardedTxnFn next,
                                     DriverConfig config,
                                     ShardedDriverReport* report = nullptr);

}  // namespace bionicdb::workload
