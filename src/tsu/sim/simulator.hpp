// The discrete-event simulator driving controller, channels, switches and
// data-plane packets on one logical clock. A Simulator either owns its
// clock (the default) or shares the clock of a ShardedSim group (see
// sharded.hpp), in which case it is one shard's event queue and the group
// merger steps the shards in global time order.
//
// For the PARALLEL sharded engine the simulator additionally understands
// event scopes (see event_queue.hpp): run_epoch() executes the pending
// kLocal events up to a horizon on a PRIVATE copy of the clock, so worker
// threads can step disjoint shards concurrently without touching the
// group's shared `now` - the group re-syncs the global clock at the join.
#pragma once

#include <cstdint>
#include <limits>

#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/util/assert.hpp"

namespace tsu::sim {

class Simulator {
 public:
  Simulator() noexcept : now_(&own_now_) {}
  // A shard of a ShardedSim: shares the group's clock so delays scheduled
  // from any shard land at the correct global time.
  explicit Simulator(SimTime* shared_now) noexcept
      : now_(shared_now), shared_now_(shared_now) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return *now_; }

  // Schedules `fn` to run `delay` after the current time. The scope is a
  // PROMISE by the caller: kLocal asserts the handler touches only this
  // shard's state (see event_queue.hpp); when unsure, keep the kShared
  // default - it only costs parallelism, never correctness. A repeated
  // constant delay rides an O(1) FIFO lane of the queue (event_queue.hpp).
  EventId schedule(Duration delay, EventFn fn,
                   EventScope scope = EventScope::kShared) {
    TSU_ASSERT_MSG(delay <= std::numeric_limits<SimTime>::max() - *now_,
                   "schedule delay overflows the clock");
    return queue_.push_after(delay, *now_ + delay, std::move(fn), scope);
  }
  EventId schedule_at(SimTime at, EventFn fn,
                      EventScope scope = EventScope::kShared) {
    TSU_ASSERT_MSG(at >= *now_, "cannot schedule into the past");
    return queue_.push(at, std::move(fn), scope);
  }
  // A ShardedSim::post delivery (sharded.hpp): lands in the remote band,
  // so at equal timestamps it sorts after every natively scheduled event -
  // and among remote events by (posted_at, remote_seq) - whatever instant
  // or batch the outbox was drained in. A delivery below the executed
  // frontier means the sharded engine's safe bound let this shard run
  // past a causal dependency - fail fast instead of executing out of order
  // (equal is fine: the remote band sorts after natives).
  EventId push_remote(SimTime at, EventFn fn,
                      EventScope scope = EventScope::kShared,
                      SimTime posted_at = 0, std::uint64_t remote_seq = 0) {
    TSU_ASSERT_MSG(at >= executed_frontier_,
                   "remote delivery below the executed-event frontier");
    return queue_.push(at, std::move(fn), scope, EventQueue::Band::kRemote,
                       posted_at, remote_seq);
  }
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Runs until the queue drains or `until` is reached (events at exactly
  // `until` still fire). Returns the number of events processed.
  std::size_t run(SimTime until = std::numeric_limits<SimTime>::max());

  // Runs at most one event; returns false if none was pending.
  bool step();

  // Parallel-epoch stepping (only meaningful for a shared-clock shard):
  // processes pending kLocal events strictly before `horizon` on a local
  // clock copy, stopping early at this shard's own earliest pending
  // kShared event - the ShardedSim bound computation only covers events
  // SIBLING shards could create, while a handler in this same epoch may
  // schedule a kShared event below the bound (the group steps those at
  // sync points, in exactly the sequential order). Returns the number of
  // events processed; epoch_now() reports how far the local clock advanced.
  std::size_t run_epoch(SimTime horizon);
  SimTime epoch_now() const noexcept { return own_now_; }

  // The next pending event's time; SimTime max when the queue is empty.
  // The ShardedSim merger uses this to pick the shard to step.
  SimTime next_event_time() const {
    return queue_.empty() ? std::numeric_limits<SimTime>::max()
                          : queue_.next_time();
  }
  // The next pending kShared event's time; SimTime max when none. One
  // input of the ShardedSim safe-horizon computation.
  SimTime next_shared_time() const { return queue_.next_shared_time(); }

  std::size_t pending() const noexcept { return queue_.size(); }
  // Queue entries including lazily cancelled ones (see
  // EventQueue::heap_size); exposed so cancel-heavy clients (the
  // controller's flush timers) can pin the compaction bound end to end.
  std::size_t heap_size() const noexcept { return queue_.heap_size(); }

 private:
  EventQueue queue_;
  SimTime own_now_ = 0;
  SimTime* now_;
  // High-water mark of executed event times: the push_remote causality
  // check above. Monotone, because every pop comes off a time-ordered
  // queue and every insertion path asserts against going into the past.
  SimTime executed_frontier_ = 0;
  // The group clock this shard rejoins after a run_epoch (null for a
  // self-clocked simulator, which never runs epochs).
  SimTime* shared_now_ = nullptr;
};

}  // namespace tsu::sim
