// What the control plane counts, one struct per concern, each with the one
// rule that folds two values together: counters sum, high-water marks take
// the max. A Controller counts into a ControllerStats; the ShardCoordinator
// folds its shards' with ControllerStats::merge; the executor's results
// carry the folded value (core/executor.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tsu/sim/exec_mode.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/sim/time.hpp"

namespace tsu::controller {

// The per-switch outbox (BatchMode): Batch frames sent, messages that
// shared one with at least one other message, flushes by trigger, flush
// timers cancelled by an earlier byte-budget flush, and the longest any
// message sat in an outbox past readiness (at most batch_window; the
// latency regression suite pins it).
struct BatchingStats {
  std::size_t batches_sent = 0;
  std::size_t messages_coalesced = 0;
  std::size_t timer_flushes = 0;
  std::size_t budget_flushes = 0;
  std::size_t flush_timers_cancelled = 0;
  sim::Duration max_hold = 0;

  double max_hold_ms() const noexcept { return sim::to_ms(max_hold); }

  void merge(const BatchingStats& other) noexcept {
    batches_sent += other.batches_sent;
    messages_coalesced += other.messages_coalesced;
    timer_flushes += other.timer_flushes;
    budget_flushes += other.budget_flushes;
    flush_timers_cancelled += other.flush_timers_cancelled;
    max_hold = std::max(max_hold, other.max_hold);
  }
};

// The sharded control plane (shard.hpp, sim/sharded.hpp). The
// ShardCoordinator alone counts the cross-shard protocol: updates that
// spanned shards, rounds whose confirmations it merged, and the summed sync
// spread (last shard's confirmation minus the first's, per merged round) -
// the price of the two-phase round barrier. It reads how its sharded clock
// stepped when the stats are taken: epochs that stepped shards
// concurrently, sequential fallback steps at collapsed horizons and
// per-shard event counts (identical across reruns of a seed). The executor
// adds what only the run knows: its exec mode and pool lanes, the affinity
// weight the partition cuts (topo::SwitchPartition::cut_weight) and the
// run loop's wall-clock cost (steady clock; the simulation itself never
// reads wall time).
struct ShardStats {
  std::size_t shards = 1;
  sim::ExecMode exec = sim::ExecMode::kSequential;
  std::size_t threads = 1;  // pool lanes actually used (1 when sequential)
  std::size_t cross_shard_updates = 0;
  std::size_t rounds_synced = 0;
  sim::Duration sync_overhead = 0;
  std::size_t parallel_epochs = 0;
  std::size_t horizon_stalls = 0;
  std::size_t overflow_posts = 0;  // nothing sets it: always 0
  std::vector<std::size_t> events_per_shard;
  std::size_t partition_cut_weight = 0;
  double wall_ms = 0;

  double sync_overhead_ms() const noexcept {
    return sim::to_ms(sync_overhead);
  }
};

struct ControllerStats {
  // High-water mark of concurrently active updates; folded, the busiest
  // shard's.
  std::size_t max_in_flight_observed = 0;
  // Admission (admission.hpp), read from the AdmissionQueue when the stats
  // are taken: dependency edges the conflict DAG created, and requests that
  // entered the queue blocked on a conflict.
  std::uint64_t conflict_edges = 0;
  std::uint64_t blocked_submissions = 0;
  BatchingStats batching;
  // The controller counts fault detection and recovery here (timeouts
  // through resubmissions); the executor adds what it injected.
  sim::FaultStats faults;
  // The coordinator's alone: a shard engine never counts into it, so merge
  // leaves it be.
  ShardStats sharding;

  void merge(const ControllerStats& other) {
    max_in_flight_observed =
        std::max(max_in_flight_observed, other.max_in_flight_observed);
    conflict_edges += other.conflict_edges;
    blocked_submissions += other.blocked_submissions;
    batching.merge(other.batching);
    faults.merge(other.faults);
  }
};

}  // namespace tsu::controller
