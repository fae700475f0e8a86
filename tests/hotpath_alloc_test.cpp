// Zero-allocation regression tests for the hot path. The global
// operator-new hooks (util/alloc_hooks.hpp - included in THIS translation
// unit only) count every heap allocation in the process; each scenario
// warms the relevant pools to their high-water mark, opens a measurement
// window, drives the steady-state loop, and asserts the window saw ZERO
// allocations:
//
//   - EventQueue push/pop churn over a warm slot arena (the "1000-flow
//     pool" hot loop),
//   - a full channel round-trip (pooled frame -> codec -> delivery event),
//   - data-plane packet hops across live flow tables, and the batch a
//     probe stream injects across frozen switches,
//   - ShardedSim::run_parallel epochs with cross-shard outbox posts,
//   - transient-state verdicts (update::state_satisfies, verify::state_ok),
//     round verdicts within the exhaustive limit (update::round_safe),
//     check_schedule on a passing schedule, the planners (WayUp, Peacock
//     and secure allocate only the schedule they return) and the exact
//     round search's constant allocation budget.
//
// Any new per-event allocation anywhere on these paths turns a green test
// red with an exact count - the same counter the bench JSON publishes.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/core/service.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/dataplane/traffic.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/sim/thread_pool.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/update/oracle.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/alloc_hooks.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/verify/checker.hpp"

namespace tsu {
namespace {

std::uint64_t allocs() { return alloc_hooks::allocations(); }

TEST(HotPathAllocTest, EventQueuePoolHotLoopAllocatesNothing) {
  // The 1000-flow pool hot loop: 1000 events concurrently pending (one
  // per in-flight flow), each pop immediately replaced by a push. After
  // one warmup lap over the full pattern, 100k further cycles must touch
  // the allocator zero times - push recycles retired slots, the heap
  // vectors live off their high-water capacity.
  sim::EventQueue q;
  std::uint64_t fired = 0;
  sim::SimTime t = 0;
  auto cycle = [&]() {
    auto event = q.pop();
    event.fn();
    q.push(++t, [&fired]() { ++fired; });
  };
  for (int i = 0; i < 1000; ++i) q.push(++t, [&fired]() { ++fired; });
  // Warmup lap: the same loop body, plus cancel churn so the free list
  // reaches its high-water capacity too.
  for (int i = 0; i < 1000; ++i) {
    cycle();
    q.cancel(q.push(t + 500000, []() {}));
  }
  const std::uint64_t before = allocs();
  for (int i = 0; i < 100000; ++i) cycle();
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "steady-state push/pop hit the allocator";

  // Cancel churn stays free as well once warm.
  const std::uint64_t before_cancel = allocs();
  for (int i = 0; i < 1000; ++i) q.cancel(q.push(t + 500000, []() {}));
  EXPECT_EQ(allocs() - before_cancel, 0u)
      << "cancel/retire cycled slots through the allocator";

  // 1000 seeded + 1000 warmup cycles + 100k measured cycles all fire;
  // the cancelled probes never do.
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 102000u);
}

// A self-rescheduling event chain with one constant delay: the shape of a
// probe's link hops, a source's injections or a switch's install timer.
struct ConstantChain {
  sim::Simulator* sim = nullptr;
  sim::Duration delay = 0;
  std::uint64_t fired = 0;

  void tick() {
    ++fired;
    sim->schedule(delay, [this]() { tick(); }, sim::EventScope::kLocal);
  }
};

// A liveness-style timer re-armed on every tick: the previous arming is
// cancelled, so almost every timer entry dies in its lane.
struct ChurnedTimer {
  sim::Simulator* sim = nullptr;
  sim::EventId armed = 0;
  std::uint64_t expired = 0;

  void tick() {
    sim->cancel(armed);
    armed = sim->schedule(sim::milliseconds(2), [this]() { ++expired; });
    sim->schedule(sim::microseconds(50), [this]() { tick(); });
  }
};

TEST(HotPathAllocTest, ConstantDelayLanesAllocateNothingOnceWarm) {
  // Three constant delays (20 us, 400 us, 50 us) with many chains each, so
  // every lane ring holds hundreds of pending entries, plus a cancel-churned
  // constant-delay timer - all through Simulator::schedule. Once the lane
  // rings, the heap and the arena reach their high-water marks, scheduling
  // and firing them never touches the allocator.
  sim::Simulator sim;
  std::vector<ConstantChain> chains;
  for (const sim::Duration delay :
       {sim::microseconds(20), sim::microseconds(400), sim::microseconds(50)})
    for (int i = 0; i < 200; ++i) chains.push_back({&sim, delay, 0});
  ChurnedTimer timer{&sim};
  for (std::size_t i = 0; i < chains.size(); ++i)
    sim.schedule(i, [&chains, i]() { chains[i].tick(); });
  sim.schedule(0, [&timer]() { timer.tick(); });

  sim.run(sim::milliseconds(20));  // warm every pool
  const std::uint64_t fired_before = chains[0].fired;
  const std::uint64_t before = allocs();
  sim.run(sim::milliseconds(60));
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "constant-delay lanes hit the allocator";
  EXPECT_EQ(chains[0].fired - fired_before, 2000u);  // 40 ms / 20 us
  EXPECT_EQ(timer.expired, 0u) << "a re-armed timer fired";
  EXPECT_LE(sim.heap_size(), sim::EventQueue::kCompactSlack * sim.pending() +
                                 sim::EventQueue::kCompactMinimum);
}

TEST(HotPathAllocTest, ChannelRoundTripAllocatesNothingOnceWarm) {
  // Send -> pooled frame -> codec encode_into -> delivery event -> decode
  // -> receiver, repeatedly. After the frame pool and event arena warm up,
  // a barrier round-trip is allocation-free end to end.
  sim::Simulator sim;
  channel::ChannelConfig config;
  channel::ControlChannel ch(sim, config, Rng(7));
  std::uint64_t received = 0;
  ch.set_receiver([&](const proto::Message& message) {
    if (message.type() == proto::MsgType::kBarrierRequest) ++received;
  });
  for (std::uint32_t i = 0; i < 64; ++i) {
    ch.send(proto::make_barrier_request(i));
    sim.run();
  }
  ASSERT_EQ(received, 64u);
  const std::uint64_t before = allocs();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ch.send(proto::make_barrier_request(i));
    sim.run();
  }
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "channel round-trip hit the allocator";
  EXPECT_EQ(received, 1064u);
}

TEST(HotPathAllocTest, PacketHopsAllocateNothingOnceWarm) {
  // A packet forwarding down a 4-switch chain walks inline wherever no
  // rule change can reach it first, and every hop it does queue is a
  // pooled event whose closure (LivePacket included) must stay inline.
  // A constant 50 us install time is what lets a 10 us hop walk at all.
  // Switch 2 is handed a FlowMod 40 us before each injection, so its
  // install completes 10 us after it: each packet walks inline to switch
  // 1, stops at switch 2 and queues a late-band hop there, then walks on
  // inline to delivery - table lookups and the FlowMod pure value work.
  // The monitor's bucket width is huge so its timeline never grows mid-run;
  // the measurement window is bracketed by two probe events inside the
  // simulation itself. The switches run on a 1-shard group.
  sim::ShardedSim group(1);
  const topo::SwitchPartition partition;
  sim::Simulator& sim = group.shard(0);
  switchsim::SwitchConfig sw_config;
  sw_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches(4, nullptr);
  for (NodeId v = 0; v < 4; ++v) {
    storage.push_back(std::make_unique<switchsim::SimSwitch>(
        sim, v, v, sw_config, Rng(v + 1)));
    switches[v] = storage.back().get();
  }
  auto rule = [&](NodeId at, flow::Action action) {
    switches[at]->table().add(
        flow::FlowRule{flow::Match::exact_flow(1), action, 100, 0});
  };
  rule(0, flow::Action::forward(1));
  rule(1, flow::Action::forward(2));
  rule(2, flow::Action::forward(3));
  rule(3, flow::Action::deliver());

  dataplane::ConsistencyMonitor monitor(sim::milliseconds(1000000));
  dataplane::TrafficConfig config;
  config.flow = 1;
  config.ingress = 0;
  config.egress = 3;
  config.interarrival = sim::LatencyModel::constant(sim::milliseconds(1));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(10));
  config.stop = sim::milliseconds(50);
  dataplane::TrafficSource source(group, partition, switches, config, Rng(9),
                                  monitor);

  // Re-adds switch 2's own rule once per injection, 40 us ahead of it.
  proto::FlowMod same;
  same.match = flow::Match::exact_flow(1);
  same.action = flow::Action::forward(3);
  const proto::Message reinstall = proto::make_flow_mod(1, same);
  std::function<void()> hand_over = [&]() {
    switches[2]->receive(reinstall);
    if (sim.now() + sim::milliseconds(1) < config.stop)
      sim.schedule(sim::milliseconds(1), [&]() { hand_over(); });
  };
  sim.schedule_at(sim::milliseconds(1) - sim::microseconds(40),
                  [&]() { hand_over(); });

  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  // 10ms of traffic warms the arena and the monitor; 10..45ms is measured.
  sim.schedule_at(sim::milliseconds(10), [&]() { window_start = allocs(); });
  sim.schedule_at(sim::milliseconds(45), [&]() { window_end = allocs(); });
  source.start();
  const std::size_t events = group.run();

  EXPECT_EQ(monitor.report().total, source.injected());
  EXPECT_EQ(monitor.report().delivered, 50u);
  EXPECT_EQ(switches[2]->flow_mods_applied(), 50u);
  // 51 injection events (the last one finds the stop time), one late-band
  // hop for each packet but the first, which meets no install, a hand-over
  // and a completion per FlowMod, and the two window probes. Hop by hop,
  // every packet would queue three hops of its own.
  EXPECT_EQ(events, 51u + 49u + 50u * 2 + 2);
  EXPECT_EQ(window_end - window_start, 0u)
      << "packet injection/hops hit the allocator mid-run";
}

TEST(HotPathAllocTest, FrozenBatchAllocatesNothingOnceWarm) {
  // One probe stream down a 4-switch chain, a packet every 100 us over
  // jittered links until 50 ms. The switches are frozen until 10 ms, so
  // the inject event at 0 batches the packets whose walks end by then;
  // from 10 ms on every packet walks in an event of its own, which warms
  // the arena. At 15 ms an event freezes the switches for good and opens
  // the window, and the next inject event walks its packet and batches
  // every later one: fork, latency draws and records only. The monitor's
  // bucket width is huge so its timeline never grows mid-run.
  sim::ShardedSim group(1);
  const topo::SwitchPartition partition;
  sim::Simulator& sim = group.shard(0);
  switchsim::SwitchConfig sw_config;
  sw_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches(4, nullptr);
  for (NodeId v = 0; v < 4; ++v) {
    storage.push_back(std::make_unique<switchsim::SimSwitch>(
        sim, v, v, sw_config, Rng(v + 1)));
    switches[v] = storage.back().get();
    switches[v]->table().add(flow::FlowRule{
        flow::Match::exact_flow(1),
        v == 3 ? flow::Action::deliver() : flow::Action::forward(v + 1), 100,
        0});
    switches[v]->freeze_until(sim::milliseconds(10));
  }

  dataplane::ConsistencyMonitor monitor(sim::milliseconds(1000000));
  dataplane::TrafficConfig config;
  config.flow = 1;
  config.ingress = 0;
  config.egress = 3;
  config.interarrival = sim::LatencyModel::constant(sim::microseconds(100));
  config.link_latency = sim::LatencyModel::uniform(sim::microseconds(5),
                                                   sim::microseconds(15));
  config.stop = sim::milliseconds(50);
  dataplane::TrafficSource source(group, partition, switches, config, Rng(9),
                                  monitor);

  std::uint64_t window_start = 0;
  sim.schedule_at(sim::milliseconds(15), [&]() {
    for (switchsim::SimSwitch* sw : switches)
      sw->freeze_until(std::numeric_limits<sim::SimTime>::max());
    window_start = allocs();
  });
  source.start();
  const std::size_t events = group.run();
  const std::uint64_t window_end = allocs();

  EXPECT_EQ(source.injected(), 500u);
  EXPECT_EQ(monitor.report().delivered, source.injected());
  // The batch at 0, one event per packet from 10 ms to 15 ms (each walks
  // inline: three links of at most 15 us stay within the 50 us install),
  // the freeze, the batch after it and the inject that finds the stop
  // time. Packet by packet, every packet would cost an inject event.
  EXPECT_EQ(events, 1u + 50u + 1u + 1u + 1u);
  EXPECT_EQ(window_end - window_start, 0u)
      << "a frozen batch hit the allocator";
}

TEST(HotPathAllocTest, SetupWatermarkFreezesTheSetupCount) {
  // The setup watermark splits the process-global allocation count into a
  // paid-once setup figure and the steady state: mark_setup_complete()
  // snapshots the counter, and later allocations move allocations() but
  // never the frozen setup_allocations() figure (the split the bench JSON
  // publishes as setup_allocs vs steady_allocs).
  auto warm = std::make_unique<int>(1);
  alloc_hooks::mark_setup_complete();
  const std::uint64_t mark = alloc_hooks::setup_allocations();
  EXPECT_GE(mark, 1u);
  auto extra = std::make_unique<int>(2);
  auto more = std::make_unique<int>(3);
  EXPECT_EQ(alloc_hooks::setup_allocations(), mark)
      << "the watermark moved after mark_setup_complete()";
  EXPECT_GT(allocs(), mark);
  // Re-marking captures the new count - each measurement phase can reset
  // its own baseline.
  alloc_hooks::mark_setup_complete();
  EXPECT_GT(alloc_hooks::setup_allocations(), mark);
}

// Self-perpetuating shard-local work: one event chain per shard keeps both
// shards eligible so run_parallel uses the worker pool.
struct Ticker {
  sim::Simulator* shard = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t fired = 0;

  void tick() {
    ++fired;
    if (remaining == 0) return;
    --remaining;
    shard->schedule(7, [this]() { tick(); }, sim::EventScope::kLocal);
  }
};

// A packet-like hand-off bouncing between two shards through their
// outboxes.
struct Bouncer {
  sim::ShardedSim* group = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t bounces = 0;

  void bounce(std::size_t at) {
    ++bounces;
    if (remaining == 0) return;
    --remaining;
    const std::size_t to = 1 - at;
    group->post(to, at, group->shard(at).now() + 10,
                [this, to]() { bounce(to); });
  }
};

TEST(HotPathAllocTest, ParallelEpochsAllocateNothingOnceWarm) {
  // run_parallel steady state: horizon computation, pool dispatch, epoch
  // stepping, outbox posts and sync-point drains - all off warm pools. The
  // warmup run pays every first-touch allocation (pool lanes, epoch
  // counters, outbox capacity, event arenas); the measured run must be
  // free.
  sim::ShardedSim group(2);
  sim::ThreadPool pool(2);
  const sim::Duration lookahead = 10;  // lower-bounds the bounce post delay

  Ticker tickers[2] = {{&group.shard(0), 2000}, {&group.shard(1), 2000}};
  Bouncer bouncer{&group, 500};
  group.schedule_on(0, 5, [&]() { tickers[0].tick(); },
                    sim::EventScope::kLocal);
  group.schedule_on(1, 5, [&]() { tickers[1].tick(); },
                    sim::EventScope::kLocal);
  group.schedule_on(0, 5, [&]() { bouncer.bounce(0); },
                    sim::EventScope::kLocal);
  group.run_parallel(pool, lookahead);
  ASSERT_EQ(tickers[0].fired, 2001u);
  ASSERT_EQ(bouncer.bounces, 501u);
  ASSERT_GT(group.parallel_epochs(), 0u);

  // Identical workload again, this time under measurement. The kick
  // events are pushed BEFORE the window opens.
  tickers[0].remaining = 2000;
  tickers[1].remaining = 2000;
  bouncer.remaining = 500;
  group.schedule_on(0, 5, [&]() { tickers[0].tick(); },
                    sim::EventScope::kLocal);
  group.schedule_on(1, 5, [&]() { tickers[1].tick(); },
                    sim::EventScope::kLocal);
  group.schedule_on(0, 5, [&]() { bouncer.bounce(0); },
                    sim::EventScope::kLocal);
  const std::uint64_t before = allocs();
  group.run_parallel(pool, lookahead);
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "parallel epochs hit the allocator";
  EXPECT_EQ(tickers[0].fired, 4002u);
  EXPECT_EQ(bouncer.bounces, 1002u);
}

TEST(HotPathAllocTest, WarmCacheSubmissionWindowAllocatesNothing) {
  // The compiled-plan cache's whole point: after the first submission of
  // each (template, direction) pair compiled its plan, every further
  // submission through execute_service is allocation-free end to end -
  // cache lookup, submit_plan, xid-patched pre-encoded sends, barrier
  // replies, completion recording, admission release, and the pending-ring
  // arrival path all run off warm pools. The window opens via the snapshot
  // feed once the run is unambiguously warm (every template submitted both
  // directions many times over, the 256-entry completion ring wrapped, all
  // pools at high-water) and closes before the drain.
  core::ServiceConfig config;
  config.exec.seed = 17;
  config.exec.with_traffic = false;
  config.flows = 4;
  config.pool_switches = 24;
  config.arrival_rate_per_sec = 20000;
  config.target_completions = 1200;
  config.snapshot_interval = sim::milliseconds(1);
  config.snapshot_window = 8;

  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  std::uint64_t in_window_completions = 0;
  std::uint64_t window_opened_at = 0;
  config.on_snapshot = [&](const core::ServiceSnapshot& snapshot) {
    if (window_start == 0 && snapshot.completed >= 400) {
      window_start = allocs();
      window_opened_at = snapshot.completed;
    } else if (window_start != 0 && window_end == 0 &&
               snapshot.completed >= 1000) {
      window_end = allocs();
      in_window_completions = snapshot.completed - window_opened_at;
    }
  };

  const Result<core::ServiceResult> run = core::execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const core::ServiceResult& result = run.value();

  ASSERT_NE(window_start, 0u) << "warm window never opened";
  ASSERT_NE(window_end, 0u) << "warm window never closed";
  EXPECT_GE(in_window_completions, 400u);
  EXPECT_EQ(window_end - window_start, 0u)
      << "warm-cache submissions hit the allocator";

  // One compile per (template, direction), everything else a hit; a
  // fault-free run never invalidates. The drain leaves no residue.
  EXPECT_EQ(result.stats.plan_compiles, 8u);
  EXPECT_EQ(result.stats.plan_hits, result.stats.submitted - 8u);
  EXPECT_EQ(result.stats.plan_invalidations, 0u);
  EXPECT_EQ(result.stats.completed, 1200u);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

TEST(HotPathAllocTest, StateVerdictsAllocateNothing) {
  // Every mask over the touched nodes, under WPE, WLF, BH and their
  // union: the trace-free walk judges each state off the heap. The
  // sparse-id instance (ids above 64) runs the hop-bound loop detection
  // with a state vector far longer than its paths.
  std::vector<update::Instance> instances;
  instances.push_back(topo::fig1().instance);
  instances.push_back(topo::reversal_instance(8));
  instances.push_back(std::move(update::Instance::make(
                                    {100, 170, 130, 160, 200},
                                    {100, 160, 130, 170, 200}, NodeId{130}))
                          .value());
  constexpr std::uint32_t kMasks[] = {
      update::kWaypoint, update::kLoopFree, update::kBlackholeFree,
      update::kTransientlySecure};
  std::vector<update::StateMask> states;
  for (const update::Instance& inst : instances) {
    const std::vector<NodeId>& touched = inst.touched();
    for (std::uint64_t bits = 0; bits < (1ULL << touched.size()); ++bits) {
      update::StateMask state = update::empty_state(inst);
      for (std::size_t i = 0; i < touched.size(); ++i)
        state[touched[i]] = ((bits >> i) & 1ULL) != 0;
      states.push_back(std::move(state));
    }
  }

  std::size_t failing = 0;
  std::size_t disagreements = 0;
  std::size_t s = 0;
  const std::uint64_t before = allocs();
  for (const update::Instance& inst : instances) {
    const std::size_t count = std::size_t{1} << inst.touched().size();
    for (std::size_t k = 0; k < count; ++k, ++s) {
      for (const std::uint32_t mask : kMasks) {
        const bool ok = update::state_satisfies(inst, states[s], mask);
        if (verify::state_ok(inst, states[s], mask) != ok) ++disagreements;
        if (!ok) ++failing;
      }
    }
  }
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "state verdicts hit the allocator";
  EXPECT_EQ(s, states.size());
  EXPECT_EQ(disagreements, 0u) << "planner and checker verdicts differ";
  EXPECT_GT(failing, 0u) << "no state failed: the sweep proves nothing";
}

// Allocations made by one search_rounds call.
std::uint64_t search_allocs(const update::Instance& inst,
                            std::uint32_t properties, bool* feasible) {
  const update::StateMask initial = update::empty_state(inst);
  const std::uint64_t before = allocs();
  const Result<std::vector<update::Round>> rounds =
      update::search_rounds(inst, initial, inst.touched(), properties,
                            inst.touched().size(), {});
  const std::uint64_t during = allocs() - before;
  *feasible = rounds.ok();
  return during;
}

TEST(HotPathAllocTest, ExactRoundSearchAllocatesAConstantAmount) {
  // The search's tables are sized once from the pending count; states are
  // walked trace-free and rounds built only for the answer. An
  // infeasibility proof therefore costs the same handful of allocations
  // whether it visits dozens of states or thousands: the verdict table,
  // the failure table and the error message.
  bool feasible = true;
  const std::uint64_t fig1 = search_allocs(topo::fig1().instance,
                                           update::kTransientlySecure,
                                           &feasible);
  EXPECT_FALSE(feasible) << "Figure 1 admits no transiently secure schedule";
  EXPECT_LE(fig1, 3u);

  // A 9-touched random instance that is infeasible too.
  Rng rng(0x9a11);
  topo::RandomInstanceOptions options;
  options.old_interior_min = options.old_interior_max = 8;
  options.new_len_min = options.new_len_max = 8;
  options.reuse_probability = 0.7;
  std::optional<update::Instance> hard;
  for (int attempt = 0; attempt < 2000 && !hard.has_value(); ++attempt) {
    update::Instance inst = topo::random_instance(rng, options);
    if (inst.touched().size() != 9) continue;
    bool ok = true;
    search_allocs(inst, update::kTransientlySecure, &ok);
    if (!ok) hard.emplace(std::move(inst));
  }
  ASSERT_TRUE(hard.has_value()) << "no infeasible 9-touched instance found";
  const std::uint64_t nine =
      search_allocs(*hard, update::kTransientlySecure, &feasible);
  EXPECT_LE(nine, 3u);
  EXPECT_EQ(nine, fig1) << "allocations scale with the states visited";
}

// Instances for the kernel windows: Figure 1, a reversal, a sparse-id
// instance and one that secure schedules greedily in six rounds.
std::vector<update::Instance> kernel_instances() {
  std::vector<update::Instance> instances;
  instances.push_back(topo::fig1().instance);
  instances.push_back(topo::reversal_instance(8));
  instances.push_back(std::move(update::Instance::make(
                                    {100, 170, 130, 160, 200},
                                    {100, 160, 130, 170, 200}, NodeId{130}))
                          .value());
  instances.push_back(std::move(update::Instance::make(
                                    {0, 1, 2, 3, 4, 5, 6, 7},
                                    {0, 8, 1, 6, 2, 5, 4, 7}, NodeId{5}))
                          .value());
  return instances;
}

TEST(HotPathAllocTest, CheckingAPassingScheduleAllocatesNothing) {
  // One walk tree per round judges its states in place, and the final
  // state's walk is checked against the new path without tracing it. Only
  // a violation allocates (its subset and witness walk). kGlobalLoopFree,
  // judged state by state on the active graph, is not in the masks.
  std::size_t checked = 0;
  for (const update::Instance& inst : kernel_instances()) {
    std::vector<std::pair<update::Schedule, std::uint32_t>> cases;
    cases.emplace_back(update::plan_peacock(inst).value(),
                       update::kPeacockGuarantee);
    if (inst.has_waypoint())
      cases.emplace_back(update::plan_wayup(inst).value(), update::kWaypoint);
    const Result<update::Schedule> secure = update::plan_secure(inst);
    if (secure.ok())
      cases.emplace_back(secure.value(), update::kTransientlySecure);
    for (const auto& [schedule, mask] : cases) {
      const std::uint64_t before = allocs();
      const verify::CheckReport report =
          verify::check_schedule(inst, schedule, mask);
      const std::uint64_t during = allocs() - before;
      EXPECT_EQ(during, 0u) << inst.to_string() << " "
                            << schedule.to_string();
      EXPECT_TRUE(report.ok) << report.to_string();
      EXPECT_TRUE(report.exhaustive);
      checked += report.states_checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(HotPathAllocTest, RoundSafetyWithinTheExhaustiveLimitAllocatesNothing) {
  // Every round of WayUp's and Peacock's schedules on the state before it,
  // plus all touched nodes as one round, under WPE, WLF, BH and their
  // union: the position masks and the walk tree live on the stack.
  constexpr std::uint32_t kMasks[] = {
      update::kWaypoint, update::kLoopFree, update::kBlackholeFree,
      update::kTransientlySecure};
  struct Case {
    const update::Instance* inst;
    update::StateMask applied;
    update::Round round;
  };
  const std::vector<update::Instance> instances = kernel_instances();
  std::vector<Case> cases;
  for (const update::Instance& inst : instances) {
    cases.push_back({&inst, update::empty_state(inst), inst.touched()});
    std::vector<update::Schedule> schedules{
        update::plan_peacock(inst).value()};
    if (inst.has_waypoint())
      schedules.push_back(update::plan_wayup(inst).value());
    for (const update::Schedule& schedule : schedules)
      for (std::size_t r = 0; r < schedule.rounds.size(); ++r)
        cases.push_back({&inst, update::state_after_rounds(inst, schedule, r),
                         schedule.rounds[r]});
  }

  std::size_t safe = 0;
  std::size_t unsafe = 0;
  const std::uint64_t before = allocs();
  for (const Case& c : cases) {
    for (const std::uint32_t mask : kMasks) {
      if (update::round_safe(*c.inst, c.applied, c.round, mask))
        ++safe;
      else
        ++unsafe;
    }
  }
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "round verdicts hit the allocator";
  EXPECT_GT(safe, 0u);
  EXPECT_GT(unsafe, 0u) << "no round failed: the sweep proves nothing";
}

// Allocations made by one planner call, and the heap blocks its schedule
// holds: the round list, each round and the cleanup list.
template <class Plan>
std::pair<std::uint64_t, std::size_t> plan_allocs(Plan&& plan) {
  const std::uint64_t before = allocs();
  const Result<update::Schedule> planned = plan();
  const std::uint64_t during = allocs() - before;
  if (!planned.ok()) return {during, 0};
  const update::Schedule& schedule = planned.value();
  return {during, 1 + schedule.rounds.size() +
                      (schedule.cleanup.empty() ? 0 : 1)};
}

TEST(HotPathAllocTest, PlannersAllocateOnlyTheirSchedule) {
  // Candidate orders, live walks, applied and pending sets live in inline
  // arrays and position masks; rounds are reserved at their final size.
  // What a planner allocates is exactly the schedule it returns.
  const update::Instance fig1 = topo::fig1().instance;
  const update::Instance six = kernel_instances()[3];

  // Figure 1: four rounds and the cleanup {4, 8, 6}.
  EXPECT_EQ(plan_allocs([&] { return update::plan_wayup(fig1); }),
            std::make_pair(std::uint64_t{6}, std::size_t{6}));
  EXPECT_EQ(plan_allocs([&] { return update::plan_peacock(fig1); }),
            std::make_pair(std::uint64_t{6}, std::size_t{6}));
  // Secure greedily builds six rounds (cleanup {3}), Peacock four.
  EXPECT_EQ(plan_allocs([&] { return update::plan_secure(six); }),
            std::make_pair(std::uint64_t{8}, std::size_t{8}));
  EXPECT_EQ(plan_allocs([&] { return update::plan_peacock(six); }),
            std::make_pair(std::uint64_t{6}, std::size_t{6}));
  EXPECT_EQ(plan_allocs([&] { return update::plan_wayup(six); }),
            std::make_pair(std::uint64_t{6}, std::size_t{6}));
}

}  // namespace
}  // namespace tsu
