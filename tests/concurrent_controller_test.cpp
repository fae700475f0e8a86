// Concurrent multi-flow controller tests: K in-flight updates interleaving
// rounds on a shared control plane, per-flow round tracking, and cross-flow
// frame batching.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/controller.hpp"
#include "tsu/switchsim/switch.hpp"

namespace tsu::controller {
namespace {

struct TestBed {
  sim::Simulator sim;
  Rng rng{12345};
  Controller ctrl;
  std::map<NodeId, std::unique_ptr<switchsim::SimSwitch>> switches;
  std::vector<std::unique_ptr<channel::DuplexChannel>> channels;

  channel::ChannelConfig channel_config;
  switchsim::SwitchConfig switch_config;

  explicit TestBed(ControllerConfig config = {}) : ctrl(sim, config) {
    channel_config.latency = sim::LatencyModel::constant(sim::milliseconds(1));
    switch_config.install_latency =
        sim::LatencyModel::constant(sim::milliseconds(1));
  }

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

  std::size_t total_frames() const {
    std::size_t frames = 0;
    for (const auto& duplex : channels)
      frames += duplex->to_switch.stats().frames_sent +
                duplex->to_controller.stats().frames_sent;
    return frames;
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

UpdateRequest two_round_request(const std::string& name, FlowId flow,
                                NodeId a, NodeId b) {
  UpdateRequest request;
  request.name = name;
  request.flow = flow;
  request.rounds = {{op(a, flow, 7)}, {op(b, flow, 8)}};
  return request;
}

TEST(ConcurrentControllerTest, TwoUpdatesOverlapWithK2) {
  ControllerConfig config;
  config.max_in_flight = 2;
  TestBed bed{config};
  bed.add_switch(1);
  bed.add_switch(2);
  bed.ctrl.submit(two_round_request("a", 1, 1, 2));
  bed.ctrl.submit(two_round_request("b", 2, 2, 1));
  EXPECT_EQ(bed.ctrl.queued(), 0u);  // both admitted immediately
  EXPECT_EQ(bed.ctrl.in_flight(), 2u);
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 2u);
  EXPECT_EQ(bed.ctrl.stats().max_in_flight_observed, 2u);
  const UpdateMetrics& m1 = bed.ctrl.completed()[0];
  const UpdateMetrics& m2 = bed.ctrl.completed()[1];
  // Concurrent, not serialized: the later-finishing update started before
  // the earlier one finished.
  EXPECT_LT(m2.started, m1.finished);
  EXPECT_EQ(m1.queueing_delay(), 0u);
  EXPECT_EQ(m2.queueing_delay(), 0u);
  // Both flows' rules landed.
  for (const FlowId flow : {1u, 2u}) {
    flow::Packet p;
    p.flow = flow;
    EXPECT_TRUE(bed.switches[1]->table().lookup(p).has_value());
    EXPECT_TRUE(bed.switches[2]->table().lookup(p).has_value());
  }
}

TEST(ConcurrentControllerTest, KOneStillSerializes) {
  ControllerConfig config;
  config.max_in_flight = 1;
  TestBed bed{config};
  bed.add_switch(1);
  bed.ctrl.submit(two_round_request("a", 1, 1, 1));
  bed.ctrl.submit(two_round_request("b", 2, 1, 1));
  EXPECT_EQ(bed.ctrl.queued(), 1u);
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 2u);
  EXPECT_GE(bed.ctrl.completed()[1].started,
            bed.ctrl.completed()[0].finished);
  EXPECT_EQ(bed.ctrl.stats().max_in_flight_observed, 1u);
}

TEST(ConcurrentControllerTest, AdmitsFromQueueAsSlotsFree) {
  ControllerConfig config;
  config.max_in_flight = 2;
  TestBed bed{config};
  bed.add_switch(1);
  for (int i = 0; i < 4; ++i) {
    std::string name("u");
    name.push_back(static_cast<char>('0' + i));
    bed.ctrl.submit(
        two_round_request(name, static_cast<FlowId>(i + 1), 1, 1));
  }
  EXPECT_EQ(bed.ctrl.in_flight(), 2u);
  EXPECT_EQ(bed.ctrl.queued(), 2u);
  bed.sim.run();
  EXPECT_TRUE(bed.ctrl.idle());
  EXPECT_EQ(bed.ctrl.completed().size(), 4u);
  EXPECT_EQ(bed.ctrl.stats().max_in_flight_observed, 2u);
}

TEST(ConcurrentControllerTest, PerFlowRoundsTrackedIndependently) {
  ControllerConfig config;
  config.max_in_flight = 2;
  TestBed bed{config};
  bed.add_switch(1);
  bed.add_switch(2);
  // Flow 1 has three rounds on a switch made slow by queueing; flow 2 has
  // one round on the other switch and must finish well before flow 1.
  UpdateRequest slow;
  slow.name = "slow";
  slow.flow = 1;
  slow.rounds = {{op(1, 1, 7)}, {op(1, 1, 8)}, {op(1, 1, 9)}};
  UpdateRequest fast;
  fast.name = "fast";
  fast.flow = 2;
  fast.rounds = {{op(2, 2, 7)}};
  bed.ctrl.submit(slow);
  bed.ctrl.submit(fast);
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 2u);
  const UpdateMetrics& first = bed.ctrl.completed()[0];
  const UpdateMetrics& second = bed.ctrl.completed()[1];
  EXPECT_EQ(first.name, "fast");  // completion order, not submission order
  EXPECT_EQ(second.name, "slow");
  EXPECT_EQ(first.flow, 2u);
  ASSERT_EQ(second.rounds.size(), 3u);
  // Flow 1's rounds stayed barrier-sequenced despite flow 2 interleaving.
  EXPECT_GE(second.rounds[1].started, second.rounds[0].finished);
  EXPECT_GE(second.rounds[2].started, second.rounds[1].finished);
}

TEST(ConcurrentControllerTest, BatchingCoalescesCrossFlowFrames) {
  ControllerConfig serial_config;
  serial_config.max_in_flight = 4;
  ControllerConfig batched_config = serial_config;
  batched_config.batch_mode = BatchMode::kAdaptive;

  const auto run = [](TestBed& bed) {
    for (FlowId flow = 1; flow <= 4; ++flow) {
      // All four flows touch the same two switches in each round.
      UpdateRequest request;
      request.name = "f";
      request.name.push_back(static_cast<char>('0' + flow));
      request.flow = flow;
      request.rounds = {{op(1, flow, 7), op(2, flow, 7)},
                        {op(1, flow, 8), op(2, flow, 8)}};
      bed.ctrl.submit(request);
    }
    bed.sim.run();
  };

  TestBed plain{serial_config};
  plain.add_switch(1);
  plain.add_switch(2);
  run(plain);
  TestBed batched{batched_config};
  batched.add_switch(1);
  batched.add_switch(2);
  run(batched);

  ASSERT_EQ(plain.ctrl.completed().size(), 4u);
  ASSERT_EQ(batched.ctrl.completed().size(), 4u);
  // Identical logical work...
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(batched.ctrl.completed()[i].flow_mods_sent,
              plain.ctrl.completed()[i].flow_mods_sent);
    EXPECT_EQ(batched.ctrl.completed()[i].barriers_sent,
              plain.ctrl.completed()[i].barriers_sent);
  }
  // ...but strictly fewer frames on the wire.
  EXPECT_LT(batched.total_frames(), plain.total_frames());
  EXPECT_GT(batched.ctrl.stats().batching.batches_sent, 0u);
  EXPECT_GT(batched.ctrl.stats().batching.messages_coalesced, 0u);
  // Every flow's rules landed in both modes.
  for (FlowId flow = 1; flow <= 4; ++flow) {
    flow::Packet p;
    p.flow = flow;
    EXPECT_EQ(batched.switches[1]->table().lookup(p)->action,
              flow::Action::forward(8));
    EXPECT_EQ(plain.switches[1]->table().lookup(p)->action,
              flow::Action::forward(8));
  }
}

TEST(ConcurrentControllerTest, BatchingAloneHelpsSingleFlowRounds) {
  // Even one update benefits: a round's FlowMod + barrier to the same
  // switch share a frame.
  ControllerConfig batched_config;
  batched_config.batch_mode = BatchMode::kAdaptive;
  TestBed plain;
  plain.add_switch(1);
  TestBed batched{batched_config};
  batched.add_switch(1);
  UpdateRequest request;
  request.flow = 1;
  request.rounds = {{op(1, 1, 2), op(1, 1, 3)}};
  plain.ctrl.submit(request);
  plain.sim.run();
  batched.ctrl.submit(request);
  batched.sim.run();
  ASSERT_EQ(batched.ctrl.completed().size(), 1u);
  EXPECT_LT(batched.total_frames(), plain.total_frames());
}

}  // namespace
}  // namespace tsu::controller
