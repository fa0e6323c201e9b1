#include "workload/driver.h"

#include <algorithm>
#include <vector>

#include "common/backoff.h"
#include "sim/sync.h"
#include "workload/sharded_driver.h"

namespace bionicdb::workload {

DriverConfig ValidatedDriverConfig(DriverConfig config) {
  if (config.clients <= 0) config.clients = 1;
  if (config.max_retries < 0) config.max_retries = 0;
  if (config.retry_backoff_ns < 0) config.retry_backoff_ns = 0;
  return config;
}

namespace {

/// Runs one transaction to a final status. A wait-die abort re-executes it
/// up to config.max_retries times with its priority pinned across attempts
/// (so the transaction ages) and a RetryBackoffNs wait in between, its
/// jitter drawn from the simulator's RNG (deterministic).
/// `attempt(&priority)` runs one execution; `on_retry()` fires before each
/// re-execution's backoff. Every sim driver retries through here.
template <typename AttemptFn, typename OnRetryFn>
sim::Task<Status> ExecuteWithRetries(sim::Simulator* sim,
                                     const DriverConfig& config,
                                     AttemptFn attempt, OnRetryFn on_retry) {
  Status st;
  uint64_t priority = 0;
  for (int n = 0; n <= config.max_retries; ++n) {
    st = co_await attempt(&priority);
    if (!st.IsAborted()) break;
    on_retry();
    co_await sim::Delay{sim, static_cast<SimTime>(RetryBackoffNs(
                                 static_cast<uint64_t>(config.retry_backoff_ns),
                                 n, sim->rng()))};
  }
  co_return st;
}

// The closed loop is written once over its target: an engine::Engine or a
// shard::Cluster. These overloads are the only places the two differ.

const engine::EngineConfig& EngineConfigOf(engine::Engine* engine) {
  return engine->config();
}
const engine::EngineConfig& EngineConfigOf(shard::Cluster* cluster) {
  return cluster->shard(0)->config();
}

/// The report counters a transaction is charged to: the single-engine
/// report itself, or the sharded report's HOME shard (lowest shard id the
/// transaction touches), counting cross-shard submissions on the way.
DriverReport* CountersFor(DriverReport* report,
                          const engine::Engine::TxnSpec& /*txn*/) {
  return report;
}
DriverReport* CountersFor(ShardedDriverReport* report,
                          const shard::ShardedTxn& txn) {
  if (report == nullptr) return nullptr;
  int home = txn.fragments[0].shard;
  for (const shard::ShardFragment& f : txn.fragments) {
    home = std::min(home, f.shard);
  }
  if (txn.cross_shard()) ++report->cross_shard_submitted;
  return &report->per_shard[static_cast<size_t>(home)];
}

struct Wave {
  explicit Wave(sim::Simulator* sim) : done(sim) {}
  uint64_t remaining = 0;
  sim::Completion done;
};

template <typename Target, typename NextFn, typename Report>
sim::Task<void> Client(Target* target, NextFn next, uint64_t my_txns,
                       int socket, Wave* wave, const DriverConfig* config,
                       Report* report) {
  for (uint64_t i = 0; i < my_txns; ++i) {
    const auto txn = next();
    DriverReport* counters = CountersFor(report, txn);
    const Status st = co_await ExecuteWithRetries(
        target->simulator(), *config,
        [&](uint64_t* priority) {
          return target->Execute(txn, socket, priority);
        },
        [counters] {
          if (counters != nullptr) ++counters->retries;
        });
    if (counters != nullptr) {
      ++counters->submitted;
      if (st.IsAborted()) {
        ++counters->gave_up;
      } else if (!st.ok()) {
        ++counters->failed;
      }
    }
  }
  if (--wave->remaining == 0) wave->done.Set();
}

/// Precondition: config came through ValidatedDriverConfig (clients >= 1;
/// a zero-client wave would never Set() its completion and divide by zero
/// splitting shares).
template <typename Target, typename NextFn, typename Report>
sim::Task<void> RunWave(Target* target, NextFn next, uint64_t total_txns,
                        const DriverConfig& config, Report* report) {
  sim::Simulator* sim = target->simulator();
  BIONICDB_CHECK(config.clients > 0);
  Wave wave(sim);
  wave.remaining = static_cast<uint64_t>(config.clients);
  const int sockets = std::max(1, EngineConfigOf(target).sockets);
  for (int c = 0; c < config.clients; ++c) {
    const uint64_t share =
        total_txns / static_cast<uint64_t>(config.clients) +
        (static_cast<uint64_t>(c) <
                 total_txns % static_cast<uint64_t>(config.clients)
             ? 1
             : 0);
    sim->Spawn(
        Client(target, next, share, c % sockets, &wave, &config, report));
  }
  co_await wave.done.Wait();
}

template <typename Target, typename NextFn, typename Report>
sim::Task<void> ClosedLoop(Target* target, NextFn next,
                           DriverConfig raw_config, Report* report) {
  const DriverConfig config = ValidatedDriverConfig(raw_config);
  target->Start();
  if (config.preheat) co_await target->PreheatBufferPool();
  if (config.warmup_txns > 0) {
    co_await RunWave(target, next, config.warmup_txns, config,
                     static_cast<Report*>(nullptr));
  }
  target->ResetStats();
  co_await RunWave(target, next, config.measured_txns, config, report);
  target->FinishRun();
  co_await target->Shutdown();
}

}  // namespace

sim::Task<void> RunClosedLoop(engine::Engine* engine, NextTxnFn next,
                              DriverConfig config, DriverReport* report) {
  return ClosedLoop(engine, std::move(next), config, report);
}

sim::Task<void> RunShardedClosedLoop(shard::Cluster* cluster,
                                     NextShardedTxnFn next,
                                     DriverConfig config,
                                     ShardedDriverReport* report) {
  if (report != nullptr) {
    report->per_shard.assign(static_cast<size_t>(cluster->num_shards()), {});
  }
  return ClosedLoop(cluster, std::move(next), config, report);
}

// ------------------------------------------------------------ open loop --

namespace {

struct OpenLoopState {
  explicit OpenLoopState(sim::Simulator* sim) : done(sim) {}
  int servers_left = 0;
  /// Flipped by the arrival task at the warmup boundary; servers only
  /// attribute counters and sojourn samples while true.
  bool measuring = false;
  sim::Completion done;
};

/// One server: claims admitted requests (in batches when configured) and
/// runs each to a final status, retrying wait-die aborts like the closed
/// loop. The admission-queue enqueue timestamp rides into Execute() so the
/// engine charges the queue wait to the admit stage and records sojourn.
sim::Task<void> OpenLoopServer(engine::Engine* engine,
                               const OpenLoopConfig* config,
                               OpenLoopState* state, OpenLoopReport* report) {
  sim::Simulator* sim = engine->simulator();
  auto* q = engine->admission();
  const int sockets = std::max(1, engine->config().sockets);
  std::vector<engine::AdmissionQueue<engine::Engine::AdmittedTxn>::Entry>
      batch;
  for (;;) {
    const size_t n = co_await q->PopBatch(&batch);
    if (n == 0) break;  // closed and drained
    for (auto& entry : batch) {
      const int socket = static_cast<int>(entry.item.client %
                                          static_cast<uint64_t>(sockets));
      const Status st = co_await ExecuteWithRetries(
          sim, config->service,
          [&](uint64_t* priority) {
            return engine->Execute(entry.item.spec, socket, priority,
                                   entry.enqueue_ts);
          },
          [&] {
            if (report && state->measuring) ++report->retries;
          });
      if (report && state->measuring) {
        ++report->completed;
        if (st.ok()) {
          ++report->committed;
        } else if (st.IsAborted()) {
          ++report->gave_up;
        } else {
          ++report->failed;
        }
        report->sojourn_ns.Add(sim->Now() - entry.enqueue_ts);
      }
    }
  }
  if (--state->servers_left == 0) state->done.Set();
}

/// The arrival task: one coroutine generates the whole offered stream in
/// virtual time — a million-client population costs one event at a time on
/// the calendar queue, never a task or a byte per client.
sim::Task<void> OpenLoopArrivals(engine::Engine* engine, NextTxnFn next,
                                 const OpenLoopConfig* config,
                                 OpenLoopState* state,
                                 OpenLoopReport* report) {
  sim::Simulator* sim = engine->simulator();
  auto* q = engine->admission();
  ArrivalModel model(config->arrival);
  const SimTime warmup_end = sim->Now() + config->warmup_ns;
  const SimTime t_end = warmup_end + config->measure_ns;
  for (;;) {
    co_await sim::Delay{sim, model.NextGapNs(sim->Now())};
    const SimTime now = sim->Now();
    if (now >= t_end) break;
    if (!state->measuring && now >= warmup_end) {
      // Measurement window opens: engine metrics (and admission counters)
      // restart so warmup arrivals don't contaminate the curves.
      engine->ResetStats();
      state->measuring = true;
    }
    // Shed accounting via the queue's counter delta: kRejectNew sheds the
    // arriving request (Offer returns false), but kDropOldest sheds a
    // previously-queued entry while admitting this one — both must land in
    // the report's shed count.
    const uint64_t shed_before = q->stats().shed;
    q->Offer({next(), model.NextClient()});
    if (report && state->measuring) {
      ++report->offered;
      report->shed += q->stats().shed - shed_before;
    }
  }
  // Stop admission; servers drain what's queued and exit.
  q->Close();
}

OpenLoopConfig ValidatedOpenLoopConfig(OpenLoopConfig config) {
  config.service = ValidatedDriverConfig(config.service);
  if (config.warmup_ns < 0) config.warmup_ns = 0;
  if (config.measure_ns <= 0) config.measure_ns = 1;
  // Arrival-side clamps live in ArrivalModel's constructor (it owns the
  // process math); population/rate zero are handled there.
  return config;
}

}  // namespace

sim::Task<void> RunOpenLoop(engine::Engine* engine, NextTxnFn next,
                            OpenLoopConfig raw_config,
                            OpenLoopReport* report) {
  const OpenLoopConfig config = ValidatedOpenLoopConfig(raw_config);
  // The engine must have been built with config.admission.enabled — the
  // bounded queue IS the open-loop front door.
  BIONICDB_CHECK(engine->admission() != nullptr);
  sim::Simulator* sim = engine->simulator();
  engine->Start();
  if (config.service.preheat) co_await engine->PreheatBufferPool();

  OpenLoopState state(sim);
  state.servers_left = config.service.clients;
  for (int s = 0; s < config.service.clients; ++s) {
    sim->Spawn(OpenLoopServer(engine, &config, &state, report));
  }
  co_await OpenLoopArrivals(engine, next, &config, &state, report);
  co_await state.done.Wait();

  // FinishRun after the drain: the elapsed window covers measure_ns plus
  // the bounded residual drain (at most depth + in-flight requests).
  engine->FinishRun();
  if (report) report->admission = engine->admission()->stats();
  co_await engine->Shutdown();
}

}  // namespace bionicdb::workload
