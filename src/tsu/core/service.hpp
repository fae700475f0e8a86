// Always-on open-loop service mode: instead of submitting a fixed workload
// and draining (the closed loop execute_multiflow runs), the
// service executor keeps a pool of update templates and injects requests
// into the running control plane at Poisson arrival times, independent of
// how fast the engine completes them. That makes the questions the closed
// loop cannot ask observable: what saturates first, how deep the backlog
// grows, what gets rejected, and whether memory stays flat while
// cumulative work grows without bound.
//
// Admission pipeline (all sim-time, fully deterministic under one seed):
//
//   arrival ──> pending queue ──> submit
//               (bounded FIFO:    (controller admission DAG,
//                overflow =        max_in_flight; the first
//                rejected)         admissible request starts)
//
// The pending queue releases its head while the controller holds fewer
// than 2 x max_in_flight x shards requests (queued + active), and the
// controller starts the first admissible queued request in arrival order
// - the paper's one REST message queue.
//
// Bounded-memory contract: the service loop holds no per-request state
// beyond the bounded pending queue and the controller's own in-flight maps;
// completions stream into CompletionLog aggregates plus a fixed recent
// ring. A run of 10 million updates retains exactly as much memory as a run
// of ten thousand - the soak test pins this with allocator watermarks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tsu/controller/completion_log.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/util/status.hpp"

namespace tsu::controller {
class ShardCoordinator;
}

namespace tsu::core {

// The fewest pool switches: one block of topo::pool_workload.
inline constexpr std::size_t kMinPoolSwitches = 6;
// The largest snapshot ring: execute_service reserves it up front.
inline constexpr std::size_t kMaxSnapshotWindow = 65536;
// The highest arrival rate, requests/second: a mean gap of 1 ns. A faster
// rate's mean gap rounds to 0 ns.
inline constexpr double kMaxArrivalRate = 1e9;

struct ServiceConfig {
  // Control-plane wiring (channel, switch, controller, traffic, seed). The
  // closed-loop warmup/drain fields are ignored; with_traffic still
  // controls whether the consistency oracle observes packets.
  ExecutorConfig exec;

  // Update-template pool: `flows` two-path instances over `pool_switches`
  // (at least kMinPoolSwitches) switches (topo::pool_workload). Each
  // arrival picks a template uniformly, and consecutive submissions of one
  // template flip between old->new and new->old so the data plane always
  // transitions from its actual current state.
  std::size_t flows = 8;
  std::size_t pool_switches = 48;

  // Poisson arrivals: exponential gaps with mean 1e9 / rate ns. At most
  // kMaxArrivalRate.
  double arrival_rate_per_sec = 2000;

  // Stop admitting arrivals at sim-time `horizon` (0 = none), or once
  // `target_completions` requests have been ACCEPTED into the pending
  // queue (0 = none) - every accepted request still completes, so the
  // completion count reaches the target. At least one bound is required.
  sim::Duration horizon = 0;
  std::uint64_t target_completions = 0;

  // Bounded pending queue: an arrival finding it full is REJECTED (load
  // shedding), not buffered - the invariant that makes steady-state memory
  // independent of overload duration.
  std::size_t max_pending = 1024;

  // Live stats: every `snapshot_interval` of sim time (0 = off) a
  // ServiceSnapshot is appended to a bounded ring of `snapshot_window`
  // (at most kMaxSnapshotWindow) entries and handed to `on_snapshot` (if
  // set) - the feed behind sim_cli --serve and the REST stats document.
  sim::Duration snapshot_interval = 0;
  std::size_t snapshot_window = 64;
  std::function<void(const struct ServiceSnapshot&)> on_snapshot;

  // Test hook: runs against the wired controller before the first arrival
  // (the soak test uses it to pre-exhaust the xid space and force sequence
  // wrap + recycling mid-run).
  std::function<void(controller::ShardCoordinator&)> tune;
};

// Streaming service counters - O(1) memory regardless of run length.
struct ServiceStats {
  std::uint64_t arrivals = 0;
  std::uint64_t accepted = 0;   // entered the pending queue
  std::uint64_t rejected = 0;   // pending queue full
  std::uint64_t submitted = 0;  // released to the controller
  // Read from the coordinator's completion log (CompletionStats count and
  // aborted), which records every completion: the service keeps no second
  // count.
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::size_t peak_pending = 0;
  std::size_t peak_controller_depth = 0;  // queued + active high-water
  // Compiled-plan cache counters: compiles = cache misses that built a
  // plan, hits = submissions served from a cached plan, invalidations =
  // cached plans discarded because a fault-driven resync bumped the
  // generation.
  std::uint64_t plan_compiles = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_invalidations = 0;
};

// One live snapshot of the serving system: the service counters so far
// (its ServiceStats base) and the state at `at`.
struct ServiceSnapshot : ServiceStats {
  sim::SimTime at = 0;
  std::size_t pending = 0;            // service pending queue, now
  std::size_t controller_depth = 0;   // controller queued + active, now
  std::size_t steady_state_entries = 0;
  double window_throughput_per_sec = 0;  // completions since last snapshot
  // Cumulative latency quantiles from the streaming histograms.
  double p50_duration_ms = 0;
  double p99_duration_ms = 0;
  double p50_wait_ms = 0;   // admission wait: enqueued -> started
  double p99_wait_ms = 0;
};

// The run's ChannelStats base folds every control channel, both directions.
struct ServiceResult : channel::ChannelStats {
  ServiceStats stats;
  // Lifetime aggregation of every completion (count, aborted, streaming
  // mean/stddev and log-histogram quantiles of duration and admission
  // wait) plus the fixed-size recent window.
  controller::CompletionStats completions;
  std::vector<controller::UpdateMetrics> recent;
  // Consistency oracle over the whole run (empty when !with_traffic).
  dataplane::MonitorReport traffic;
  std::vector<ServiceSnapshot> snapshots;  // last snapshot_window, in order
  // Controller map/queue entries after the drain - the leak detector; a
  // healthy run ends at 0.
  std::size_t steady_state_entries_final = 0;
  std::uint64_t final_state_digest = 0;
  // Sim time of the last completion, from 0 (so it includes the first
  // arrival's gap); sustained_per_sec divides by it.
  sim::Duration sim_duration = 0;
  double wall_ms = 0;
  // Xid sequence numbers sitting in the per-shard recycle free lists after
  // the drain - nonzero proves updates retired and released their xids.
  std::size_t retired_xids = 0;

  double sustained_per_sec() const noexcept {
    return sim_duration == 0
               ? 0
               : static_cast<double>(stats.completed) * 1e9 /
                     static_cast<double>(sim_duration);
  }
};

// Runs the open-loop service until arrivals stop (horizon / target) and
// the system drains. Deterministic per seed.
Result<ServiceResult> execute_service(const ServiceConfig& config);

}  // namespace tsu::core
