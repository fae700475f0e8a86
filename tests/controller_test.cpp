// Controller FSM tests: wire a real controller to real switches over real
// channels and assert the paper's round/barrier discipline.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/controller.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"

namespace tsu::controller {
namespace {

struct TestBed {
  sim::Simulator sim;
  Rng rng{12345};
  Controller ctrl;
  std::map<NodeId, std::unique_ptr<switchsim::SimSwitch>> switches;
  std::vector<std::unique_ptr<channel::DuplexChannel>> channels;

  explicit TestBed(ControllerConfig config = {},
                   sim::Duration channel_latency = sim::milliseconds(1),
                   sim::Duration install_latency = sim::milliseconds(1))
      : ctrl(sim, config) {
    channel_config.latency = sim::LatencyModel::constant(channel_latency);
    switch_config.install_latency =
        sim::LatencyModel::constant(install_latency);
  }

  channel::ChannelConfig channel_config;
  switchsim::SwitchConfig switch_config;

  void add_switch(NodeId node) {
    auto sw = std::make_unique<switchsim::SimSwitch>(
        sim, node, node, switch_config, rng.fork());
    auto duplex = std::make_unique<channel::DuplexChannel>(
        sim, channel_config, rng);
    auto* sw_ptr = sw.get();
    auto* duplex_ptr = duplex.get();
    duplex->to_switch.set_receiver(
        [sw_ptr](const proto::Message& m) { sw_ptr->receive(m); });
    duplex->to_controller.set_receiver(
        [this, node](const proto::Message& m) { ctrl.on_message(node, m); });
    sw->set_controller_link([duplex_ptr](const proto::Message& m) {
      duplex_ptr->to_controller.send(m);
    });
    ctrl.attach_switch(
        node, [duplex_ptr](std::span<const std::byte> frame, Xid xid) {
          duplex_ptr->to_switch.send_encoded(frame, xid);
        });
    switches.emplace(node, std::move(sw));
    channels.push_back(std::move(duplex));
  }
};

RoundOp op(NodeId node, FlowId flow, NodeId next) {
  proto::FlowMod mod;
  mod.command = proto::FlowModCommand::kAdd;
  mod.priority = 100;
  mod.match.flow = flow;
  mod.action = flow::Action::forward(next);
  return RoundOp{node, mod, {}};
}

TEST(ControllerTest, SingleRoundUpdateCompletes) {
  TestBed bed;
  bed.add_switch(1);
  bed.add_switch(2);
  UpdateRequest request;
  request.name = "simple";
  request.flow = 1;
  request.rounds = {{op(1, 1, 2), op(2, 1, 3)}};
  bed.ctrl.submit(request);
  bed.sim.run();
  EXPECT_TRUE(bed.ctrl.idle());
  ASSERT_EQ(bed.ctrl.completed().size(), 1u);
  const UpdateMetrics& m = bed.ctrl.completed()[0];
  EXPECT_EQ(m.flow_mods_sent, 2u);
  EXPECT_EQ(m.barriers_sent, 2u);
  ASSERT_EQ(m.rounds.size(), 1u);
  // channel 1ms + install 1ms + barrier 0.1ms + channel back 1ms = 3.1ms.
  EXPECT_EQ(m.duration(),
            sim::milliseconds(3) + sim::microseconds(100));
  // Rules actually landed.
  flow::Packet p;
  p.flow = 1;
  EXPECT_TRUE(bed.switches[1]->table().lookup(p).has_value());
  EXPECT_TRUE(bed.switches[2]->table().lookup(p).has_value());
}

TEST(ControllerTest, RoundsAreSequencedByBarriers) {
  TestBed bed;
  bed.add_switch(1);
  bed.add_switch(2);
  UpdateRequest request;
  request.name = "two-rounds";
  request.flow = 1;
  request.rounds = {{op(1, 1, 2)}, {op(2, 1, 3)}};
  bed.ctrl.submit(request);
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 1u);
  const UpdateMetrics& m = bed.ctrl.completed()[0];
  ASSERT_EQ(m.rounds.size(), 2u);
  // Round 2 begins only after round 1's barrier reply arrived.
  EXPECT_GE(m.rounds[1].started, m.rounds[0].finished);
  // Each round costs channel + install + barrier + channel back.
  EXPECT_EQ(m.rounds[0].finished - m.rounds[0].started,
            sim::milliseconds(3) + sim::microseconds(100));
}

TEST(ControllerTest, AsynchronousRoundStillWaitsForSlowestSwitch) {
  TestBed bed;
  bed.add_switch(1);
  bed.add_switch(2);
  // Switch 2 is pathologically slow to install.
  switchsim::SwitchConfig slow = bed.switch_config;
  slow.install_latency = sim::LatencyModel::constant(sim::milliseconds(50));
  auto slow_switch = std::make_unique<switchsim::SimSwitch>(
      bed.sim, 3, 3, slow, Rng(5));
  auto duplex = std::make_unique<channel::DuplexChannel>(
      bed.sim, bed.channel_config, bed.rng);
  auto* sw_ptr = slow_switch.get();
  auto* duplex_ptr = duplex.get();
  duplex->to_switch.set_receiver(
      [sw_ptr](const proto::Message& m) { sw_ptr->receive(m); });
  duplex->to_controller.set_receiver(
      [&bed](const proto::Message& m) { bed.ctrl.on_message(3, m); });
  sw_ptr->set_controller_link([duplex_ptr](const proto::Message& m) {
    duplex_ptr->to_controller.send(m);
  });
  bed.ctrl.attach_switch(
      3, [duplex_ptr](std::span<const std::byte> frame, Xid xid) {
        duplex_ptr->to_switch.send_encoded(frame, xid);
      });
  bed.switches.emplace(3, std::move(slow_switch));
  bed.channels.push_back(std::move(duplex));

  UpdateRequest request;
  request.flow = 1;
  request.rounds = {{op(1, 1, 2), op(3, 1, 4)}};
  bed.ctrl.submit(request);
  bed.sim.run();
  const UpdateMetrics& m = bed.ctrl.completed()[0];
  // Dominated by the slow switch: 1 + 50 + 0.1 + 1 ms.
  EXPECT_EQ(m.duration(),
            sim::milliseconds(52) + sim::microseconds(100));
}

TEST(ControllerTest, IntervalDelaysNextRound) {
  TestBed bed;
  bed.add_switch(1);
  bed.add_switch(2);
  UpdateRequest request;
  request.flow = 1;
  request.rounds = {{op(1, 1, 2)}, {op(2, 1, 3)}};
  request.interval = sim::milliseconds(20);
  bed.ctrl.submit(request);
  bed.sim.run();
  const UpdateMetrics& m = bed.ctrl.completed()[0];
  EXPECT_EQ(m.rounds[1].started - m.rounds[0].finished,
            sim::milliseconds(20));
}

TEST(ControllerTest, MessageQueueSerializesRequests) {
  TestBed bed;
  bed.add_switch(1);
  UpdateRequest first;
  first.name = "first";
  first.flow = 1;
  first.rounds = {{op(1, 1, 2)}};
  UpdateRequest second;
  second.name = "second";
  second.flow = 2;
  second.rounds = {{op(1, 2, 3)}};
  bed.ctrl.submit(first);
  bed.ctrl.submit(second);
  EXPECT_EQ(bed.ctrl.queued(), 1u);  // second waits its turn
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 2u);
  const UpdateMetrics& m1 = bed.ctrl.completed()[0];
  const UpdateMetrics& m2 = bed.ctrl.completed()[1];
  EXPECT_EQ(m1.name, "first");
  EXPECT_EQ(m2.name, "second");
  EXPECT_GE(m2.started, m1.finished);       // strict serialization
  EXPECT_EQ(m2.queueing_delay(), m1.finished - m2.submitted);
}

TEST(ControllerTest, RecklessModeSkipsPerRoundBarriers) {
  TestBed barriered{ControllerConfig{true}};
  barriered.add_switch(1);
  barriered.add_switch(2);
  TestBed reckless{ControllerConfig{false}};
  reckless.add_switch(1);
  reckless.add_switch(2);

  const auto request = []() {
    UpdateRequest r;
    r.flow = 1;
    r.rounds = {{op(1, 1, 2)}, {op(2, 1, 3)}, {op(1, 1, 9)}};
    return r;
  }();
  barriered.ctrl.submit(request);
  barriered.sim.run();
  reckless.ctrl.submit(request);
  reckless.sim.run();

  const sim::Duration with_barriers = barriered.ctrl.completed()[0].duration();
  const sim::Duration without = reckless.ctrl.completed()[0].duration();
  EXPECT_LT(without, with_barriers);
  // Rules still all land in reckless mode.
  flow::Packet p;
  p.flow = 1;
  EXPECT_TRUE(reckless.switches[2]->table().lookup(p).has_value());
}

TEST(ControllerTest, OnUpdateDoneFires) {
  TestBed bed;
  bed.add_switch(1);
  std::string done_name;
  bed.ctrl.set_on_update_done(
      [&](const UpdateMetrics& m) { done_name = m.name; });
  UpdateRequest request;
  request.name = "cb";
  request.flow = 1;
  request.rounds = {{op(1, 1, 2)}};
  bed.ctrl.submit(request);
  bed.sim.run();
  EXPECT_EQ(done_name, "cb");
}

TEST(ControllerTest, EmptyRequestCompletesImmediately) {
  TestBed bed;
  bed.add_switch(1);
  UpdateRequest request;
  request.name = "noop";
  bed.ctrl.submit(request);
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 1u);
  EXPECT_EQ(bed.ctrl.completed()[0].duration(), 0u);
}

// ------------------------------------------------- request_from_schedule --

TEST(UpdateRequestTest, InitialRulesCoverOldPathPlusDelivery) {
  const topo::Fig1 fig = topo::fig1();
  const std::vector<RoundOp> ops = initial_rules(fig.instance, 1, 100);
  ASSERT_EQ(ops.size(), fig.instance.old_path().size());
  EXPECT_EQ(ops.front().node, 1u);
  EXPECT_EQ(ops.front().mod.action, flow::Action::forward(2));
  EXPECT_EQ(ops.back().node, 12u);
  EXPECT_EQ(ops.back().mod.action, flow::Action::deliver());
}

TEST(UpdateRequestTest, LowersScheduleRoundsToFlowMods) {
  const topo::Fig1 fig = topo::fig1();
  const Result<update::Schedule> schedule = update::plan_wayup(fig.instance);
  ASSERT_TRUE(schedule.ok());
  const UpdateRequest request = request_from_schedule(
      fig.instance, schedule.value(), 1, 100, sim::milliseconds(5));
  // 4 semantic rounds + cleanup.
  ASSERT_EQ(request.rounds.size(), 5u);
  EXPECT_EQ(request.interval, sim::milliseconds(5));
  // Round 1 installs new-only nodes with ADD.
  for (const RoundOp& round_op : request.rounds[0])
    EXPECT_EQ(round_op.mod.command, proto::FlowModCommand::kAdd);
  // Round 3 modifies both-path nodes.
  for (const RoundOp& round_op : request.rounds[2])
    EXPECT_EQ(round_op.mod.command, proto::FlowModCommand::kModify);
  // Cleanup deletes.
  for (const RoundOp& round_op : request.rounds.back())
    EXPECT_EQ(round_op.mod.command, proto::FlowModCommand::kDeleteStrict);
  // Actions point at the new next hops.
  for (const RoundOp& round_op : request.rounds[2]) {
    EXPECT_EQ(round_op.mod.action,
              flow::Action::forward(fig.instance.new_next(round_op.node)));
  }
}

TEST(ControllerTest, XidWrapRecyclesRetiredSequences) {
  // The 24-bit per-shard xid sequence used to hard-abort on wrap, killing
  // long soaks. Jump the counter to its last few fresh values: the
  // controller must cross the wrap mid-workload by recycling retired
  // sequence numbers (flowmod/batch xids retire at send, barrier xids on
  // their reply) and every update must still complete normally.
  TestBed bed;
  bed.add_switch(1);
  bed.add_switch(2);
  bed.ctrl.exhaust_xid_space_for_test(16);
  for (int i = 0; i < 8; ++i) {
    UpdateRequest request;
    request.name = "wrap";
    request.flow = 1;
    request.rounds = {{op(1, 1, 2), op(2, 1, 3)}};
    bed.ctrl.submit(request);
  }
  bed.sim.run();
  EXPECT_TRUE(bed.ctrl.idle());
  ASSERT_EQ(bed.ctrl.completed().size(), 8u);
  for (const UpdateMetrics& m : bed.ctrl.completed()) {
    EXPECT_FALSE(m.aborted);
    EXPECT_EQ(m.flow_mods_sent, 2u);
  }
  // Recycled xids routed every reply.
  EXPECT_EQ(bed.ctrl.stats().faults.retries, 0u);
  // 8 updates x (2 flowmods + 2 barriers + batch frames) far exceeds the
  // 16 fresh values left, so the free list both filled and drained.
  EXPECT_GT(bed.ctrl.retired_xids(), 0u);
  // Every install really landed despite xid reuse across updates.
  for (const auto& [node, sw] : bed.switches)
    EXPECT_EQ(sw->flow_mods_applied(), 8u);
}

TEST(ControllerTest, XidWrapKeepsTimedOutXidsUnrecycled) {
  // A barrier that times out must leave its xid leaked forever: the
  // switch may still emit the late reply, which has to hit the late-
  // barrier path, not a recycled xid's new owner. Drive a crash so a
  // liveness timeout fires, then keep running wrapped updates: counts
  // must stay exact and nothing may mis-route.
  ControllerConfig config;
  config.liveness_timeout = sim::milliseconds(40);
  TestBed bed(config);
  bed.add_switch(1);
  bed.add_switch(2);
  bed.ctrl.exhaust_xid_space_for_test(16);

  UpdateRequest first;
  first.name = "crash-victim";
  first.flow = 1;
  first.rounds = {{op(1, 1, 2), op(2, 1, 3)}};
  bed.ctrl.submit(first);
  // Crash switch 2 before its install completes; the controller's
  // liveness timer fires, retries, and the update finishes after restart.
  bed.sim.schedule_at(sim::microseconds(1500),
                      [&]() { bed.switches.at(2)->crash(true); });
  bed.sim.schedule_at(sim::milliseconds(60),
                      [&]() { bed.switches.at(2)->restart(); });
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 1u);
  EXPECT_FALSE(bed.ctrl.completed()[0].aborted);
  EXPECT_GE(bed.ctrl.stats().faults.retries, 1u);

  // Post-crash, post-wrap steady state still works off the free list.
  for (int i = 0; i < 4; ++i) {
    UpdateRequest request;
    request.name = "after";
    request.flow = 1;
    request.rounds = {{op(1, 1, 2), op(2, 1, 3)}};
    bed.ctrl.submit(request);
  }
  bed.sim.run();
  EXPECT_TRUE(bed.ctrl.idle());
  ASSERT_EQ(bed.ctrl.completed().size(), 5u);
  const std::size_t crash_retries = bed.ctrl.stats().faults.retries;
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_FALSE(bed.ctrl.completed()[i].aborted);
  // No new retries post-wrap.
  EXPECT_EQ(bed.ctrl.stats().faults.retries, crash_retries);
}

TEST(CompletionLogTest, StreamsAggregatesAndKeepsBoundedRing) {
  CompletionLog log(4);
  for (int i = 0; i < 10; ++i) {
    UpdateMetrics m;
    m.name = "u" + std::to_string(i);
    m.flow = 1;
    m.enqueued = static_cast<sim::SimTime>(i * 10);
    m.submitted = m.enqueued;
    m.started = m.enqueued + 2;
    m.finished = m.enqueued + 7;
    m.flow_mods_sent = 2;
    m.barriers_sent = 1;
    m.rounds.resize(3);
    log.record(std::move(m));
  }
  EXPECT_EQ(log.count(), 10u);
  EXPECT_TRUE(log.wrapped());
  EXPECT_EQ(log.recent().size(), 4u);       // bounded despite 10 records
  EXPECT_EQ(log.recent_back(0).name, "u9");  // newest
  EXPECT_EQ(log.recent_back(3).name, "u6");  // oldest retained
  // Streaming aggregates still cover ALL 10 completions.
  const CompletionStats& stats = log.stats();
  EXPECT_EQ(stats.flow_mods_sent, 20u);
  EXPECT_EQ(stats.barriers_sent, 10u);
  EXPECT_EQ(stats.rounds, 30u);
  EXPECT_EQ(stats.first_finished, 7u);
  EXPECT_EQ(stats.last_finished, 97u);
  EXPECT_EQ(stats.duration_ms.count(), 10u);
  EXPECT_DOUBLE_EQ(stats.duration_ms.mean(), 5.0 / 1e6);
  EXPECT_EQ(stats.aborted, 0u);
}

TEST(CompletionLogTest, BelowCapacityKeepsFullHistoryInOrder) {
  // The closed-loop compatibility contract: until the ring wraps,
  // recent() is the complete history in completion order - exactly what
  // the old append-only vector exposed.
  CompletionLog log;  // default capacity 256
  for (int i = 0; i < 8; ++i) {
    UpdateMetrics m;
    m.name = "u" + std::to_string(i);
    log.record(std::move(m));
  }
  EXPECT_FALSE(log.wrapped());
  ASSERT_EQ(log.recent().size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(log.recent()[i].name, "u" + std::to_string(i));
}

TEST(ControllerTest, SteadyStateEntriesReturnToZeroAfterDrain) {
  // The leak detector behind the soak test: every per-xid / per-update map
  // must erase on every path, so a drained controller holds zero entries.
  TestBed bed;
  bed.add_switch(1);
  bed.add_switch(2);
  for (int i = 0; i < 6; ++i) {
    UpdateRequest request;
    request.name = "drain";
    request.flow = 1;
    request.rounds = {{op(1, 1, 2), op(2, 1, 3)}};
    bed.ctrl.submit(request);
  }
  EXPECT_GT(bed.ctrl.steady_state_entries(), 0u);  // live while queued
  bed.sim.run();
  EXPECT_TRUE(bed.ctrl.idle());
  EXPECT_EQ(bed.ctrl.steady_state_entries(), 0u);
}

TEST(ControllerTest, SteadyStateEntriesFlatAcrossCrashRecovery) {
  // The timeout -> retry -> resync path allocates tracking entries in
  // several maps (liveness timers, resync waiting, barrier routing); all
  // of them must be erased once recovery completes.
  ControllerConfig config;
  config.liveness_timeout = sim::milliseconds(40);
  TestBed bed(config);
  bed.add_switch(1);
  bed.add_switch(2);
  UpdateRequest request;
  request.name = "crash";
  request.flow = 1;
  request.rounds = {{op(1, 1, 2), op(2, 1, 3)}};
  bed.ctrl.submit(request);
  bed.sim.schedule_at(sim::microseconds(1500),
                      [&]() { bed.switches.at(2)->crash(true); });
  bed.sim.schedule_at(sim::milliseconds(60),
                      [&]() { bed.switches.at(2)->restart(); });
  bed.sim.run();
  EXPECT_TRUE(bed.ctrl.idle());
  ASSERT_EQ(bed.ctrl.completed().size(), 1u);
  EXPECT_GE(bed.ctrl.stats().faults.retries, 1u);
  EXPECT_EQ(bed.ctrl.steady_state_entries(), 0u);
}

}  // namespace
}  // namespace tsu::controller
