#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "tsu/sim/distributions.hpp"
#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/sim/thread_pool.hpp"

namespace tsu::sim {
namespace {

// ------------------------------------------------------------- EventQueue --

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&]() { fired.push_back(3); });
  q.push(10, [&]() { fired.push_back(1); });
  q.push(20, [&]() { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(5, [&]() { fired.push_back(1); });
  q.push(5, [&]() { fired.push_back(2); });
  q.push(5, [&]() { fired.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelSuppressesEvent) {
  EventQueue q;
  std::vector<int> fired;
  q.push(1, [&]() { fired.push_back(1); });
  const EventId second = q.push(2, [&]() { fired.push_back(2); });
  q.push(3, [&]() { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(second));
  EXPECT_FALSE(q.cancel(second));  // already cancelled
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelReleasesClosureEagerly) {
  // The cancelled closure's captures must be destroyed AT the cancel, not
  // when the lazy heap entry is eventually skimmed or compacted away. A
  // retransmit timer capturing a frame buffer would otherwise pin that
  // memory until an unrelated pop wandered past the tombstone.
  EventQueue q;
  auto payload = std::make_shared<int>(42);
  const EventId id = q.push(10, [payload]() {});
  q.push(20, []() {});  // keeps the heap non-empty so nothing is skimmed
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(payload.use_count(), 1)
      << "cancel left the closure alive in the arena";
  // The stale heap entry is still there (lazy cancel) yet firing works.
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, 1u);
}

TEST(EventQueueTest, PoppedClosureSlotIsRetired) {
  // Firing an event must release its arena slot (and closure) so the
  // steady-state push/pop loop recycles storage instead of growing it.
  EventQueue q;
  auto payload = std::make_shared<int>(7);
  q.push(1, [payload]() {});
  auto event = q.pop();
  event.fn();
  event.fn.reset();  // simulator drops the fn right after invoking it
  EXPECT_EQ(payload.use_count(), 1);
  // The freed slot is reused: ids differ (generation bump) but storage
  // does not grow.
  const EventId a = q.push(2, []() {});
  q.pop();
  const EventId b = q.push(3, []() {});
  EXPECT_NE(a, b);  // stale ids must not alias the recycled slot
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = q.push(1, []() {});
  q.push(9, []() {});
  q.cancel(first);
  EXPECT_EQ(q.next_time(), 9u);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, []() {});
  q.push(2, []() {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

// -------------------------------------------------------------- Simulator --

TEST(EventQueueTest, CompactionBoundsHeapUnderCancelChurn) {
  // Retransmit-timer pattern: almost every scheduled event gets cancelled.
  // Lazy cancellation alone would grow the heap to the total push count;
  // compaction must keep it within the documented bound throughout.
  EventQueue q;
  std::vector<EventId> batch;
  for (int round = 0; round < 200; ++round) {
    batch.clear();
    for (int i = 0; i < 500; ++i)
      batch.push_back(q.push(1000 + round, []() {}));
    // Cancel all but one per round (the one that "times out").
    for (std::size_t i = 0; i + 1 < batch.size(); ++i) q.cancel(batch[i]);
    ASSERT_LE(q.heap_size(), EventQueue::kCompactSlack * q.size() +
                                 EventQueue::kCompactMinimum)
        << "round " << round;
  }
  EXPECT_EQ(q.size(), 200u);  // one survivor per round
  // The heap is within a small factor of the live count, not the ~100k
  // events ever pushed.
  EXPECT_LE(q.heap_size(), EventQueue::kCompactSlack * q.size() +
                               EventQueue::kCompactMinimum);
  // Surviving events still fire in order after all those rebuilds.
  SimTime last = 0;
  std::size_t fired = 0;
  while (!q.empty()) {
    const auto event = q.pop();
    EXPECT_GE(event.time, last);
    last = event.time;
    ++fired;
  }
  EXPECT_EQ(fired, 200u);
}

TEST(EventQueueTest, FlushTimerCancelChurnStaysBoundedAmidLiveEvents) {
  // The controller's windowed outbox arms one cancellable flush timer per
  // switch fill and cancels it whenever the byte budget ships the outbox
  // first - so under budget-heavy batching churn nearly every timer dies
  // cancelled while channel-delivery events stay live and keep firing.
  // The lazy-cancel heap must stay within its compaction bound the whole
  // time, and surviving events must keep firing in order.
  EventQueue q;
  SimTime now = 0;
  SimTime last_fired = 0;
  for (int round = 0; round < 5000; ++round) {
    // Budget flush: the armed flush timer is cancelled before it fires.
    const EventId timer = q.push(now + 500, []() {});
    ASSERT_TRUE(q.cancel(timer));
    // Interleaved live work (frame deliveries, installs) that does fire.
    q.push(now + 100, []() {});
    if (round % 2 == 0) {
      const auto fired = q.pop();
      EXPECT_GE(fired.time, last_fired);
      last_fired = fired.time;
    }
    ASSERT_LE(q.heap_size(), EventQueue::kCompactSlack * q.size() +
                                 EventQueue::kCompactMinimum)
        << "round " << round;
    ++now;
  }
  // Draining the survivors works after all that churn.
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_GT(fired, 0u);
}

TEST(EventQueueTest, CompactionPreservesCancelSemantics) {
  // Cancelling an id that survived a rebuild must still work, and ids of
  // compacted-away entries must stay invalid.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) ids.push_back(q.push(10 + i, []() {}));
  for (int i = 0; i < 290; ++i) EXPECT_TRUE(q.cancel(ids[i]));  // compacts
  EXPECT_FALSE(q.cancel(ids[0]));      // already cancelled
  EXPECT_TRUE(q.cancel(ids[295]));     // survivor, still cancellable
  EXPECT_EQ(q.size(), 9u);
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, 9u);
}

// Differential check of the constant-delay lanes: the queue and a reference
// ordered set on (time, band, major, minor) see the same seeded mix of
// pushes, pops and cancels, and must agree on every popped event,
// next_time() and next_shared_time() after every step.
TEST(EventQueueTest, LanesFireInReferenceOrder) {
  using Key = std::tuple<SimTime, int, std::uint64_t, std::uint64_t>;
  struct Pending {
    EventId id;
    std::uint64_t token;
    bool shared;
  };
  constexpr Duration kConstant[] = {20, 400, 50, 0, 1000};

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::map<Key, Pending> ref;
    std::set<Key> ref_shared;
    std::vector<Key> recent;  // recently pushed keys: cancel candidates
    std::uint64_t seq = 0;    // mirrors the queue's push counter
    std::uint64_t next_token = 0;
    std::uint64_t fired_token = 0;
    std::uint64_t remote_seq = 0;
    SimTime now = 0;
    std::size_t lane_pushes_reordered = 0;
    std::size_t cancels = 0;

    const auto add = [&](const Key& key, EventId id, std::uint64_t token,
                         EventScope scope) {
      const bool shared = scope == EventScope::kShared;
      ASSERT_TRUE(ref.emplace(key, Pending{id, token, shared}).second);
      if (shared) ref_shared.insert(key);
      recent.push_back(key);
    };
    const auto native = [&](SimTime at, Duration delay, bool lane,
                            EventScope scope) {
      const std::uint64_t token = next_token++;
      auto fn = [&fired_token, token]() { fired_token = token; };
      const EventId id = lane ? q.push_after(delay, at, fn, scope)
                              : q.push(at, fn, scope);
      add(Key{at, 0, seq++, 0}, id, token, scope);
    };
    const auto cancel = [&](const Key& key) {
      const auto it = ref.find(key);
      if (it == ref.end()) return;
      ASSERT_TRUE(q.cancel(it->second.id));
      EXPECT_FALSE(q.cancel(it->second.id));
      ref_shared.erase(key);
      ref.erase(it);
      ++cancels;
    };

    for (int step = 0; step < 20000; ++step) {
      const EventScope scope =
          rng.bernoulli(0.7) ? EventScope::kLocal : EventScope::kShared;
      const std::size_t op = rng.index(100);
      if (op < 30) {
        const Duration d = kConstant[rng.index(std::size(kConstant))];
        native(now + d, d, true, scope);
      } else if (op < 36) {
        const Duration d = rng.uniform_u64(1, 5000);  // jittered
        native(now + d, d, true, scope);
      } else if (op < 39) {
        native(now + rng.index(700), 0, false, scope);  // schedule_at
      } else if (op < 42) {
        // A remote hand-off landing on an instant native work also uses.
        const SimTime at = ref.empty() || rng.bernoulli(0.5)
                               ? now + kConstant[rng.index(3)]
                               : std::get<0>(ref.begin()->first);
        const SimTime posted = now - std::min<SimTime>(now, rng.index(50));
        const std::uint64_t token = next_token++;
        const EventId id = q.push(
            at, [&fired_token, token]() { fired_token = token; }, scope,
            EventQueue::Band::kRemote, posted, ++remote_seq);
        ++seq;
        add(Key{at, 1, posted, remote_seq}, id, token, scope);
      } else if (op < 44) {
        // A clock behind the lane's tail (a shard rejoining a lagging group
        // clock): the push must still fire in order.
        const Duration d = kConstant[rng.index(3)];
        const SimTime behind = now - std::min<SimTime>(now, 1 + rng.index(300));
        native(behind + d, d, true, scope);
        ++lane_pushes_reordered;
      } else if (op < 56 && !recent.empty()) {
        // Cancel the newest (a lane tail), an older one (a middle), or the
        // earliest pending event (a lane or heap head).
        const std::size_t pick = rng.index(3);
        if (pick == 0) {
          cancel(recent.back());
        } else if (pick == 1) {
          cancel(recent[rng.index(recent.size())]);
        } else if (!ref.empty()) {
          cancel(ref.begin()->first);
        }
      } else if (op < 60) {
        // Timer churn: arm a constant-delay timer and cancel it at once.
        native(now + 700, 700, true, scope);
        cancel(recent.back());
      } else if (!ref.empty()) {
        const auto first = ref.begin();
        ASSERT_EQ(q.next_time(), std::get<0>(first->first)) << "step " << step;
        EventQueue::Fired fired = q.pop();
        fired.fn();
        ASSERT_EQ(fired_token, first->second.token)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(fired.time, std::get<0>(first->first));
        ASSERT_EQ(fired.scope == EventScope::kShared, first->second.shared);
        ref_shared.erase(first->first);
        ref.erase(first);
        now = fired.time;
      }
      if (recent.size() > 64) recent.erase(recent.begin(), recent.begin() + 32);

      ASSERT_EQ(q.size(), ref.size()) << "seed " << seed << " step " << step;
      if (!ref.empty()) {
        ASSERT_EQ(q.next_time(), std::get<0>(ref.begin()->first))
            << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(q.next_shared_time(),
                ref_shared.empty() ? std::numeric_limits<SimTime>::max()
                                   : std::get<0>(*ref_shared.begin()))
          << "seed " << seed << " step " << step;
      ASSERT_LE(q.heap_size(), EventQueue::kCompactSlack * q.size() +
                                   EventQueue::kCompactMinimum)
          << "seed " << seed << " step " << step;
    }
    // Drain: the tail of the run fires in reference order too.
    while (!ref.empty()) {
      EventQueue::Fired fired = q.pop();
      fired.fn();
      ASSERT_EQ(fired_token, ref.begin()->second.token) << "seed " << seed;
      ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_GT(lane_pushes_reordered, 0u);
    EXPECT_GT(cancels, 1000u);
  }
}

TEST(EventQueueTest, LaneFlushTimerCancelChurnStaysBounded) {
  // FlushTimerCancelChurnStaysBoundedAmidLiveEvents through
  // Simulator::schedule: the repeated constant delays put both the
  // cancelled timers and the live work in FIFO lanes, so the bound now
  // rests on lane compaction.
  Simulator sim;
  std::size_t fired = 0;
  SimTime last_fired = 0;
  for (int round = 0; round < 5000; ++round) {
    const EventId timer = sim.schedule(500, []() {});
    ASSERT_TRUE(sim.cancel(timer));
    sim.schedule(100, [&]() {
      EXPECT_GE(sim.now(), last_fired);
      last_fired = sim.now();
      ++fired;
    });
    if (round % 2 == 0) sim.step();
    ASSERT_LE(sim.heap_size(), EventQueue::kCompactSlack * sim.pending() +
                                   EventQueue::kCompactMinimum)
        << "round " << round;
    // Advance the clock between rounds without firing anything.
    sim.run(sim.now() + 1);
  }
  sim.run();
  EXPECT_EQ(fired, 5000u);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  SimTime seen = 0;
  sim.schedule(100, [&]() { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&]() {
    times.push_back(sim.now());
    sim.schedule(5, [&]() { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&]() { ++fired; });
  sim.schedule(100, [&]() { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);  // clock moved to the horizon
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtHorizonStillFires) {
  Simulator sim;
  int fired = 0;
  sim.schedule(50, [&]() { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, StepRunsExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&]() { ++fired; });
  sim.schedule(2, [&]() { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, CancelPending) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(10, [&]() { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, ReturnsProcessedCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(static_cast<Duration>(i), []() {});
  EXPECT_EQ(sim.run(), 5u);
}

TEST(SimulatorDeathTest, SchedulingIntoPastAsserts) {
  Simulator sim;
  sim.schedule(10, []() {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(5, []() {}), "past");
}

// ----------------------------------------------------------- sharded sim --

TEST(ShardedSimTest, IdleSiblingEchoKeepsShardZeroInTimeOrder) {
  // Regression for the per-shard wave bound's round-trip cap: shard 0
  // carries a dense chain of local events while shard 1 is completely idle
  // (no pending events, no kShared work anywhere). One early shard-0 event
  // posts a hand-off to shard 1 whose handler immediately echoes back at
  // +2*lookahead. Without the N_i + 2*lookahead term the sibling-only
  // bound is unbounded here, shard 0 runs its whole chain in one epoch,
  // and the echo is delivered BELOW events shard 0 already executed -
  // execution order diverges from the sequential merger (and trips the
  // push_remote frontier assert). With the cap, both modes must record
  // the identical shard-0 execution sequence.
  constexpr Duration kLookahead = 10;
  constexpr std::uint64_t kChain = 100;
  auto run_one = [](bool parallel) {
    ShardedSim group(2);
    std::vector<SimTime> order;  // shard-0 executions only: no cross-shard
                                 // writes, so epochs never race on it
    std::uint64_t remaining = kChain;
    std::function<void()> tick = [&]() {
      order.push_back(group.shard(0).now());
      if (remaining == 0) return;
      --remaining;
      group.shard(0).schedule(1, [&]() { tick(); }, EventScope::kLocal);
    };
    group.schedule_on(0, 5, [&]() { tick(); }, EventScope::kLocal);
    group.schedule_on(
        0, 5,
        [&]() {
          group.post(1, 0, group.shard(0).now() + kLookahead, [&]() {
            group.post(0, 1, group.shard(1).now() + kLookahead,
                       [&]() { order.push_back(group.shard(0).now()); });
          });
        },
        EventScope::kLocal);
    if (parallel) {
      ThreadPool pool(2);
      group.run_parallel(pool, kLookahead);
    } else {
      group.run();
    }
    return order;
  };
  const std::vector<SimTime> sequential = run_one(false);
  const std::vector<SimTime> parallel = run_one(true);
  ASSERT_EQ(sequential.size(), kChain + 2);  // chain ticks + the echo
  EXPECT_TRUE(std::is_sorted(parallel.begin(), parallel.end()))
      << "shard 0 executed an echoed hand-off below its own frontier";
  EXPECT_EQ(parallel, sequential);
}

// ------------------------------------------------------------- time utils --

TEST(TimeTest, UnitHelpers) {
  EXPECT_EQ(microseconds(2), 2'000u);
  EXPECT_EQ(milliseconds(3), 3'000'000u);
  EXPECT_EQ(seconds(1), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_us(microseconds(7)), 7.0);
}

TEST(TimeTest, FromMsClampsNegative) {
  EXPECT_EQ(from_ms(-1.0), 0u);
  EXPECT_EQ(from_ms(1.5), 1'500'000u);
}

TEST(TimeTest, FromMsSaturatesAtMaxDuration) {
  EXPECT_EQ(from_ms(1e300), kMaxDuration);
  EXPECT_EQ(from_ms(std::numeric_limits<double>::infinity()), kMaxDuration);
  EXPECT_EQ(from_ms(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(from_ms(to_ms(kMaxDuration) / 2), kMaxDuration / 2);
  // Two saturated durations still sum inside the clock.
  EXPECT_GT(kMaxDuration + kMaxDuration, kMaxDuration);
}

TEST(TimeTest, LatencySamplesSaturateAtMaxDuration) {
  Rng rng(6);
  EXPECT_EQ(LatencyModel::constant(kMaxDuration).sample(rng), kMaxDuration);
  LatencyModel huge = LatencyModel::constant(0);
  huge.a = 1e300;
  EXPECT_EQ(huge.sample(rng), kMaxDuration);
  EXPECT_EQ(huge.min_delay(), kMaxDuration);
  huge.a = std::numeric_limits<double>::infinity();
  EXPECT_EQ(huge.sample(rng), kMaxDuration);
  // A lognormal tail far past the clock range saturates instead of
  // overflowing the cast.
  const LatencyModel wild = LatencyModel::lognormal(seconds(1000000), 40);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(wild.sample(rng), kMaxDuration);
}

TEST(SimulatorDeathTest, ScheduleDelayOverflowingTheClockAsserts) {
  Simulator sim;
  sim.schedule(10, []() {});
  sim.run();
  EXPECT_DEATH(sim.schedule(std::numeric_limits<SimTime>::max() - 5, []() {}),
               "overflows");
}

// ---------------------------------------------------------- distributions --

TEST(LatencyModelTest, ConstantAlwaysSame) {
  Rng rng(1);
  const LatencyModel m = LatencyModel::constant(milliseconds(2));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.sample(rng), milliseconds(2));
  EXPECT_DOUBLE_EQ(m.mean(), 2e6);
}

TEST(LatencyModelTest, UniformWithinBounds) {
  Rng rng(2);
  const LatencyModel m =
      LatencyModel::uniform(microseconds(100), microseconds(200));
  for (int i = 0; i < 1000; ++i) {
    const Duration d = m.sample(rng);
    EXPECT_GE(d, microseconds(100));
    EXPECT_LT(d, microseconds(200));
  }
  EXPECT_DOUBLE_EQ(m.mean(), 150e3);
}

TEST(LatencyModelTest, ExponentialMeanApproximation) {
  Rng rng(3);
  const LatencyModel m = LatencyModel::exponential(milliseconds(1));
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(m.sample(rng));
  EXPECT_NEAR(sum / n, 1e6, 5e4);
}

TEST(LatencyModelTest, LognormalMedianApproximation) {
  Rng rng(4);
  const LatencyModel m = LatencyModel::lognormal(milliseconds(1), 0.5);
  std::vector<double> samples;
  for (int i = 0; i < 10001; ++i)
    samples.push_back(static_cast<double>(m.sample(rng)));
  std::nth_element(samples.begin(), samples.begin() + 5000, samples.end());
  EXPECT_NEAR(samples[5000], 1e6, 1e5);
}

TEST(LatencyModelTest, ParetoBounded) {
  Rng rng(5);
  const LatencyModel m =
      LatencyModel::pareto(microseconds(100), milliseconds(100), 1.3);
  for (int i = 0; i < 2000; ++i) {
    const Duration d = m.sample(rng);
    EXPECT_GE(d, microseconds(100));
    EXPECT_LT(d, milliseconds(100));
  }
}

TEST(LatencyModelTest, ToStringMentionsKind) {
  EXPECT_NE(LatencyModel::constant(1).to_string().find("const"),
            std::string::npos);
  EXPECT_NE(LatencyModel::lognormal(milliseconds(1), 0.5)
                .to_string()
                .find("lognormal"),
            std::string::npos);
}

}  // namespace
}  // namespace tsu::sim
