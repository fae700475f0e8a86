// The sharded logical clock: one global simulation time driving N
// per-shard event queues. Within a shard, events fire in (time, band,
// insertion) order exactly as in a lone Simulator; across shards the
// merger always steps the shard with the earliest next event, breaking
// timestamp ties towards the lowest shard index, so every run is fully
// deterministic and a 1-shard group is event-for-event identical to a lone
// Simulator (the `shards = 1` bit-compatibility guarantee rests on this).
//
// EXECUTION MODES. run() is the sequential merger. run_parallel() steps
// independent shards on a worker pool in WAVES between cross-shard
// synchronization points: each wave computes a PER-SHARD safe bound
//
//   S_i = min( earliest pending kShared event across shards,   // inbound
//              min over siblings j != i of N_j + lookahead,     // creation
//              N_i + 2 * lookahead )                            // bounce
//
// where N_j is shard j's earliest pending event at the wave start - the
// earliest instant at which any OTHER shard's execution can reach shard i.
// kShared events (inbound control-plane deliveries, coordinator round
// barriers, harness submissions) only ever run at sync points on the
// merging thread; `lookahead` is the caller's lower bound on the delay of
// any kShared event or cross-shard mailbox post CREATED by a kLocal event
// (the executor derives it from the latency models), so nothing a sibling
// schedules mid-wave can mature below S_i. The third term is shard i's own
// ROUND-TRIP horizon: an event i executes can post into a sibling's
// mailbox, and that sibling's handler can post right back - a cycle that
// crosses at least two mailbox hops of >= lookahead each, so the echo
// lands at >= N_i + 2*lookahead. Without this cap a shard with idle
// siblings and no near kShared event would run arbitrarily far ahead and
// later receive its own echo below events it already executed. A shard's
// own mid-wave creations are covered separately: run_epoch stops at the
// shard's own earliest pending kShared event (simulator.hpp), and
// same-shard mailbox posts deliver directly under the remote-band key
// order. Per-shard bounds still dominate the old global horizon
// min_i(N_i) + lookahead: a shard far ahead of its siblings no longer
// drags everyone's window down, it only constrains what may run on
// ITSELF - and since N_i >= min_j(N_j), the bounce cap N_i + 2*lookahead
// is never tighter than that old global horizon. If no shard has work below its
// bound the merger falls back to one sequential step (a HORIZON STALL);
// otherwise every eligible shard runs its sub-bound events concurrently on
// a private clock copy, the pool joins, outboxes drain, and the global
// clock advances. Every event keeps the timestamp, shard and intra-shard
// order it has under run(), so both modes are bit-identical - the
// equivalence suite pins this.
//
// MAILBOXES. Shards never schedule into a foreign shard's queue mid-step.
// A cross-shard hand-off (today: a data-plane packet hopping to a switch
// owned by another shard) made inside an epoch is appended to the POSTING
// shard's outbox, a plain vector that only the worker stepping that shard
// writes during the epoch. After the pool join, whose mutex and condition
// variable order every append before it, the merging thread drains the
// outboxes in poster order. Drained entries enter their target queue in
// the REMOTE band (event_queue.hpp) under the key (delivery time, post
// time, posting shard, per-shard post sequence). That key is a total
// order, so neither the append order nor the drain grouping changes what
// fires, and the sequential merger - which delivers every post at once -
// produces the identical schedule. A self-post, and any post outside an
// epoch, goes straight into the target queue. Drained outboxes keep their
// capacity, so the steady state allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "tsu/sim/exec_mode.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/sim/thread_pool.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/util/assert.hpp"

namespace tsu::sim {

class ShardedSim {
 public:
  explicit ShardedSim(std::size_t shards = 1) {
    const std::size_t count = shards == 0 ? 1 : shards;
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      shards_.push_back(std::make_unique<Simulator>(&now_));
    outboxes_.resize(count);
    post_seq_.assign(count, 0);
    events_.assign(count, 0);
  }
  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  Simulator& shard(std::size_t i) {
    TSU_ASSERT_MSG(i < shards_.size(), "shard index out of range");
    return *shards_[i];
  }
  const Simulator& shard(std::size_t i) const {
    TSU_ASSERT_MSG(i < shards_.size(), "shard index out of range");
    return *shards_[i];
  }

  SimTime now() const noexcept { return now_; }

  // Harness-level events (warmup submissions and the like) land on shard 0
  // unless schedule_on targets the shard that owns the work.
  EventId schedule(Duration delay, EventFn fn,
                   EventScope scope = EventScope::kShared) {
    return shards_[0]->schedule(delay, std::move(fn), scope);
  }
  EventId schedule_on(std::size_t shard, Duration delay, EventFn fn,
                      EventScope scope = EventScope::kShared) {
    TSU_ASSERT_MSG(shard < shards_.size(), "shard index out of range");
    return shards_[shard]->schedule(delay, std::move(fn), scope);
  }

  // Cross-shard hand-off from `poster`'s execution into `target`'s queue
  // at absolute time `at` (see the file comment). Callable from the worker
  // stepping `poster` mid-epoch; the entry becomes visible to the target
  // at the next sync point (immediately under the sequential merger, and
  // immediately for a SELF-post - target == poster - which only the
  // poster's own worker can observe; the remote-band key makes the
  // insertion instant irrelevant to ordering either way).
  void post(std::size_t target, std::size_t poster, SimTime at, EventFn fn,
            EventScope scope = EventScope::kLocal);

  // Merged run: repeatedly steps the shard with the earliest pending event
  // until every queue drains or `until` is reached (events at exactly
  // `until` still fire). Returns the number of events processed.
  std::size_t run(SimTime until = std::numeric_limits<SimTime>::max());

  // Parallel run (see the file comment). `lookahead` must lower-bound the
  // delay of every kShared event / mailbox post a kLocal event can create
  // TOWARDS A SIBLING shard (same-shard creations are self-guarded);
  // 0 degenerates to per-event sequential stepping (always correct, never
  // concurrent). Bit-identical to run() by construction.
  std::size_t run_parallel(ThreadPool& pool, Duration lookahead,
                           SimTime until = std::numeric_limits<SimTime>::max());

  std::size_t pending() const noexcept {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->pending();
    return total;
  }

  // Observability of the stepping engine: epochs that ran shards
  // concurrently, sequential fallback steps at collapsed horizons, and
  // events processed per shard (equal across reruns of one seed - the
  // parallel determinism test pins this).
  std::size_t parallel_epochs() const noexcept { return parallel_epochs_; }
  std::size_t horizon_stalls() const noexcept { return horizon_stalls_; }
  const std::vector<std::size_t>& events_per_shard() const noexcept {
    return events_;
  }

 private:
  // One buffered hand-off; its poster is the outbox that holds it.
  struct Post {
    SimTime at = 0;         // absolute delivery time
    SimTime posted_at = 0;  // poster's clock when the post was made
    std::size_t target = 0;
    std::uint64_t seq = 0;  // per-poster monotone sequence
    EventScope scope = EventScope::kLocal;
    EventFn fn;
  };

  // One sequential merge step: fires the earliest event across shards
  // (ties to the lowest shard index). Returns false when nothing is
  // pending at or before `until`.
  bool step_earliest(SimTime until);
  // Sync point: moves every buffered post into its target queue.
  void drain_outboxes();

  SimTime now_ = 0;
  // unique_ptr: each shard's &now_ must stay valid, and Simulator is
  // intentionally non-copyable.
  std::vector<std::unique_ptr<Simulator>> shards_;
  // Indexed by poster. Mid-epoch, outboxes_[p] and post_seq_[p] are
  // written only by the worker stepping shard p.
  std::vector<std::vector<Post>> outboxes_;
  std::vector<std::uint64_t> post_seq_;
  std::vector<std::size_t> events_;
  // Per-epoch event counts and per-shard wave bounds - members so
  // run_parallel itself is allocation-free in steady state.
  std::vector<std::size_t> epoch_counts_;
  std::vector<SimTime> wave_bounds_;
  // True while workers are inside an epoch: posts buffer in the outboxes
  // instead of scheduling straight through.
  bool buffering_ = false;
  std::size_t parallel_epochs_ = 0;
  std::size_t horizon_stalls_ = 0;
};

}  // namespace tsu::sim
