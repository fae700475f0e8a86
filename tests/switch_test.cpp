#include <gtest/gtest.h>

#include <vector>

#include "tsu/switchsim/switch.hpp"

namespace tsu::switchsim {
namespace {

SwitchConfig fast_config() {
  SwitchConfig config;
  config.install_latency = sim::LatencyModel::constant(sim::milliseconds(1));
  config.barrier_processing = sim::microseconds(100);
  config.message_processing = sim::microseconds(10);
  return config;
}

proto::Message add_rule(Xid xid, FlowId flow, NodeId next) {
  proto::FlowMod mod;
  mod.command = proto::FlowModCommand::kAdd;
  mod.priority = 100;
  mod.match.flow = flow;
  mod.action = flow::Action::forward(next);
  return proto::make_flow_mod(xid, mod);
}

TEST(SwitchTest, FlowModAppliesAfterInstallLatency) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  sw.receive(add_rule(1, 5, 2));
  // Not yet applied: installation takes 1 ms.
  EXPECT_TRUE(sw.table().empty());
  sim.run(sim::microseconds(500));
  EXPECT_TRUE(sw.table().empty());
  sim.run();
  EXPECT_EQ(sw.table().size(), 1u);
  EXPECT_EQ(sw.flow_mods_applied(), 1u);
  flow::Packet p;
  p.flow = 5;
  EXPECT_EQ(sw.table().lookup(p)->action, flow::Action::forward(2));
}

TEST(SwitchTest, FifoProcessingOrder) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  // Two mods for the same match: the later one must win (FIFO).
  sw.receive(add_rule(1, 5, 2));
  sw.receive(add_rule(2, 5, 9));
  sim.run();
  flow::Packet p;
  p.flow = 5;
  EXPECT_EQ(sw.table().lookup(p)->action, flow::Action::forward(9));
}

TEST(SwitchTest, BarrierRepliesOnlyAfterAllPriorMessages) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  std::vector<std::pair<sim::SimTime, proto::Message>> out;
  sw.set_controller_link([&](const proto::Message& m) {
    out.emplace_back(sim.now(), m);
  });
  sw.receive(add_rule(1, 5, 2));
  sw.receive(add_rule(2, 6, 3));
  sw.receive(proto::make_barrier_request(3));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second.type(), proto::MsgType::kBarrierReply);
  EXPECT_EQ(out[0].second.xid, 3u);
  // 2 installs x 1 ms + barrier processing 100 us.
  EXPECT_EQ(out[0].first, sim::milliseconds(2) + sim::microseconds(100));
  // Both rules were applied before the reply.
  EXPECT_EQ(sw.flow_mods_applied(), 2u);
  EXPECT_EQ(sw.barriers_replied(), 1u);
}

TEST(SwitchTest, OpenFlowBarrierSemanticsUnderLoad) {
  sim::Simulator sim;
  SwitchConfig config = fast_config();
  config.install_latency =
      sim::LatencyModel::uniform(sim::microseconds(200), sim::milliseconds(5));
  SimSwitch sw(sim, 1, 1, config, Rng(33));
  bool barrier_seen = false;
  sw.set_controller_link([&](const proto::Message& m) {
    if (m.type() == proto::MsgType::kBarrierReply) {
      barrier_seen = true;
      // The barrier contract: all 10 mods already applied.
      EXPECT_EQ(sw.flow_mods_applied(), 10u);
    }
  });
  for (Xid xid = 0; xid < 10; ++xid)
    sw.receive(add_rule(xid, xid, 2));
  sw.receive(proto::make_barrier_request(99));
  sim.run();
  EXPECT_TRUE(barrier_seen);
  EXPECT_TRUE(sw.quiescent());
}

TEST(SwitchTest, ModifyAndDeleteCommands) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  sw.receive(add_rule(1, 5, 2));
  proto::FlowMod modify;
  modify.command = proto::FlowModCommand::kModify;
  modify.priority = 100;
  modify.match.flow = 5;
  modify.action = flow::Action::forward(7);
  sw.receive(proto::make_flow_mod(2, modify));
  sim.run();
  flow::Packet p;
  p.flow = 5;
  EXPECT_EQ(sw.table().lookup(p)->action, flow::Action::forward(7));

  proto::FlowMod del;
  del.command = proto::FlowModCommand::kDeleteStrict;
  del.priority = 100;
  del.match.flow = 5;
  sw.receive(proto::make_flow_mod(3, del));
  sim.run();
  EXPECT_TRUE(sw.table().empty());
}

TEST(SwitchTest, EchoRepliedWithPayload) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  std::vector<proto::Message> out;
  sw.set_controller_link([&](const proto::Message& m) { out.push_back(m); });
  std::vector<std::byte> payload{std::byte{9}};
  sw.receive(proto::make_echo_request(4, payload));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), proto::MsgType::kEchoReply);
  EXPECT_EQ(std::get<proto::Echo>(out[0].body).payload, payload);
}

TEST(SwitchTest, FeaturesReplyCarriesDatapath) {
  sim::Simulator sim;
  SimSwitch sw(sim, 3, 0xfeed, fast_config(), Rng(1));
  std::vector<proto::Message> out;
  sw.set_controller_link([&](const proto::Message& m) { out.push_back(m); });
  proto::Message request;
  request.xid = 1;
  request.body = proto::FeaturesRequest{};
  sw.receive(request);
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<proto::FeaturesReply>(out[0].body).datapath, 0xfeedu);
}

TEST(SwitchTest, InstallTimesRecorded) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  sw.receive(add_rule(1, 1, 2));
  sw.receive(add_rule(2, 2, 2));
  sim.run();
  EXPECT_EQ(sw.install_times().count(), 2u);
  EXPECT_DOUBLE_EQ(sw.install_times().mean(), 1e6);  // constant 1 ms
}

TEST(SwitchTest, BatchExpandsInOrderAndKeepsBarrierFencing) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  bool barrier_replied = false;
  sw.set_controller_link([&](const proto::Message& m) {
    if (m.type() == proto::MsgType::kBarrierReply) {
      barrier_replied = true;
      // The barrier reply must come only after both mods applied.
      EXPECT_EQ(sw.flow_mods_applied(), 2u);
    }
  });
  std::vector<proto::Message> group;
  group.push_back(add_rule(1, 5, 2));
  group.push_back(add_rule(2, 5, 9));
  group.push_back(proto::make_barrier_request(3));
  sw.receive(proto::make_batch(7, std::move(group)));
  sim.run();
  EXPECT_TRUE(barrier_replied);
  EXPECT_EQ(sw.batches_received(), 1u);
  EXPECT_EQ(sw.flow_mods_applied(), 2u);
  // FIFO within the batch: the later mod for the same match wins.
  flow::Packet p;
  p.flow = 5;
  EXPECT_EQ(sw.table().lookup(p)->action, flow::Action::forward(9));
}

TEST(SwitchTest, ReplyBatchingCoalescesSameInstantReplies) {
  // Zero processing times force several barrier replies into one instant;
  // with batch_replies they must ship as ONE Batch frame carrying every
  // reply in completion order, counted in the reply-direction stats.
  sim::Simulator sim;
  SwitchConfig config = fast_config();
  config.barrier_processing = 0;
  config.message_processing = 0;
  config.batch_replies = true;
  SimSwitch sw(sim, 1, 1, config, Rng(1));
  std::vector<proto::Message> out;
  sw.set_controller_link([&](const proto::Message& m) { out.push_back(m); });
  sw.receive(proto::make_barrier_request(1));
  sw.receive(proto::make_barrier_request(2));
  sw.receive(proto::make_barrier_request(3));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].type(), proto::MsgType::kBatch);
  const proto::Batch& batch = std::get<proto::Batch>(out[0].body);
  ASSERT_EQ(batch.messages.size(), 3u);
  for (Xid xid = 1; xid <= 3; ++xid) {
    EXPECT_EQ(batch.messages[xid - 1].type(), proto::MsgType::kBarrierReply);
    EXPECT_EQ(batch.messages[xid - 1].xid, xid);
  }
  EXPECT_EQ(sw.reply_batches_sent(), 1u);
  EXPECT_EQ(sw.batched_replies_sent(), 3u);
}

TEST(SwitchTest, ReplyBatchingSendsLoneRepliesPlain) {
  // A reply with no same-instant company pays no batch framing, and the
  // default config keeps the reply path untouched.
  sim::Simulator sim;
  SwitchConfig batched = fast_config();
  batched.batch_replies = true;
  SimSwitch sw(sim, 1, 1, batched, Rng(1));
  std::vector<proto::Message> out;
  sw.set_controller_link([&](const proto::Message& m) { out.push_back(m); });
  sw.receive(proto::make_barrier_request(5));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), proto::MsgType::kBarrierReply);
  EXPECT_EQ(sw.reply_batches_sent(), 0u);
  EXPECT_EQ(sw.batched_replies_sent(), 0u);
}

TEST(SwitchTest, StableUntilBoundsTheNextTableChange) {
  // fast_config installs in 1 ms and answers a barrier in 100 us.
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  // A bare switch may be handed a message at any instant.
  EXPECT_EQ(sw.change_lead(), sim::milliseconds(1));
  EXPECT_EQ(sw.stable_until(), sim::milliseconds(1));

  // With channels attached and none in flight, no message starts before
  // one least channel latency from now.
  channel::ChannelConfig link;
  link.latency = sim::LatencyModel::uniform(sim::microseconds(80),
                                            sim::microseconds(120));
  channel::ControlChannel inbound(sim, link, Rng(2));
  channel::ControlChannel outbound(sim, link, Rng(3));
  inbound.set_receiver([&sw](const proto::Message& m) { sw.receive(m); });
  outbound.set_receiver([](const proto::Message&) {});
  sw.attach_channels(inbound, outbound);
  EXPECT_EQ(sw.change_lead(), sim::microseconds(80));
  EXPECT_EQ(sw.stable_until(), sim::microseconds(80) + sim::milliseconds(1));

  // A frame in flight may start the moment it lands.
  inbound.send(add_rule(1, 5, 2));
  EXPECT_EQ(inbound.in_flight(), 1u);
  EXPECT_EQ(sw.stable_until(), sim::milliseconds(1));
  ASSERT_TRUE(sim.step());
  const sim::SimTime start = sim.now();
  EXPECT_EQ(inbound.in_flight(), 0u);
  // Installing: the table changes when the install completes.
  EXPECT_EQ(sw.stable_until(), start + sim::milliseconds(1));
  // A scheduled crash before that comes first, a later one does not.
  sw.expect_crash(start + sim::milliseconds(5));
  sw.expect_crash(start + sim::microseconds(300));
  EXPECT_EQ(sw.stable_until(), start + sim::microseconds(300));
  // A switch out of service may return to it at any instant.
  sw.set_serving(false);
  EXPECT_EQ(sw.stable_until(), start);
  sw.set_serving(true);

  sim.run();
  EXPECT_EQ(sim.now(), start + sim::milliseconds(1));
  EXPECT_EQ(sw.table().size(), 1u);
  // Busy with a barrier: the next install starts when the barrier ends.
  sw.receive(proto::make_barrier_request(2));
  EXPECT_EQ(sw.stable_until(),
            sim.now() + sim::microseconds(100) + sim::milliseconds(1));
  sim.run();
  // Idle again: the crash at +300 us has passed, and the one at +5 ms
  // bounds only once it is nearer than a channel latency and an install.
  EXPECT_EQ(sw.stable_until(),
            sim.now() + sim::microseconds(80) + sim::milliseconds(1));
  sim.schedule_at(start + sim::microseconds(4500), []() {});
  sim.run();
  EXPECT_EQ(sw.stable_until(), start + sim::milliseconds(5));
}

TEST(SwitchTest, FreezeRaisesStableUntilToItsBound) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  EXPECT_EQ(sw.frozen_until(), 0u);
  sw.freeze_until(sim::milliseconds(5));
  EXPECT_EQ(sw.stable_until(), sim::milliseconds(5));
  // Bounds only grow.
  sw.freeze_until(sim::milliseconds(2));
  EXPECT_EQ(sw.frozen_until(), sim::milliseconds(5));
  // A later bound of its own still wins: a bare switch may start a 1 ms
  // install at any instant.
  sim.schedule_at(sim::microseconds(4500), []() {});
  sim.run();
  EXPECT_EQ(sw.stable_until(), sim::microseconds(4500) + sim::milliseconds(1));
  // A switch out of service stays so until the bound.
  SimSwitch down(sim, 2, 2, fast_config(), Rng(2));
  down.set_serving(false);
  EXPECT_EQ(down.stable_until(), sim::microseconds(4500));
  down.freeze_until(sim::milliseconds(6));
  EXPECT_EQ(down.stable_until(), sim::milliseconds(6));
}

TEST(SwitchTest, FlowModCompletingAtTheFrozenBoundApplies) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  sw.receive(add_rule(1, 5, 2));  // installs from 0 to 1 ms
  sw.freeze_until(sim::milliseconds(1));
  sim.run();
  EXPECT_EQ(sw.flow_mods_applied(), 1u);
  // Past the bound, any change is allowed again.
  sw.receive(add_rule(2, 6, 3));
  sw.set_serving(true);
  sw.crash(false);
  EXPECT_FALSE(sw.serving());
}

// A freeze is the executor's promise that nothing changes the switch
// before its bound; a change inside it aborts the run instead of letting a
// batched probe stream read stale tables.
TEST(SwitchDeathTest, ChangeInsideAFreezeAborts) {
  // A FlowMod installing from 0 to 1 ms completes inside a freeze to 2 ms.
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
        sw.receive(add_rule(1, 5, 2));
        sw.freeze_until(sim::milliseconds(2));
        sim.run();
      },
      "inside a declared freeze");
  // A FlowMod that arrives inside the freeze would queue a change there.
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
        sw.freeze_until(sim::milliseconds(2));
        sw.receive(add_rule(1, 5, 2));
      },
      "inside a declared freeze");
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
        sw.freeze_until(sim::milliseconds(2));
        sw.crash(true);
      },
      "inside a declared freeze");
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
        sw.freeze_until(sim::milliseconds(2));
        sw.set_serving(false);
      },
      "inside a declared freeze");
}

TEST(SwitchTest, QuiescentReflectsPendingWork) {
  sim::Simulator sim;
  SimSwitch sw(sim, 1, 1, fast_config(), Rng(1));
  EXPECT_TRUE(sw.quiescent());
  sw.receive(add_rule(1, 1, 2));
  EXPECT_FALSE(sw.quiescent());
  sim.run();
  EXPECT_TRUE(sw.quiescent());
}

}  // namespace
}  // namespace tsu::switchsim
