#include <gtest/gtest.h>

#include <vector>

#include "tsu/channel/channel.hpp"

namespace tsu::channel {
namespace {

struct Fixture {
  sim::Simulator sim;
  std::vector<std::pair<sim::SimTime, proto::Message>> received;

  ControlChannel make(ChannelConfig config, std::uint64_t seed = 1) {
    ControlChannel channel(sim, config, Rng(seed));
    channel.set_receiver([this](const proto::Message& m) {
      received.emplace_back(sim.now(), m);
    });
    return channel;
  }
};

TEST(ChannelTest, DeliversAfterConstantLatency) {
  Fixture f;
  ChannelConfig config;
  config.latency = sim::LatencyModel::constant(sim::milliseconds(2));
  ControlChannel channel = f.make(config);
  channel.send(proto::make_hello(1));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].first, sim::milliseconds(2));
  EXPECT_EQ(f.received[0].second.type(), proto::MsgType::kHello);
}

TEST(ChannelTest, PreservesMessageContentThroughWire) {
  Fixture f;
  ControlChannel channel = f.make(ChannelConfig{});
  proto::FlowMod mod;
  mod.command = proto::FlowModCommand::kModify;
  mod.priority = 42;
  mod.match.flow = 9;
  mod.action = flow::Action::forward(5);
  channel.send(proto::make_flow_mod(77, mod));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1u);
  const auto& decoded = std::get<proto::FlowMod>(f.received[0].second.body);
  EXPECT_EQ(f.received[0].second.xid, 77u);
  EXPECT_EQ(decoded.priority, 42);
  EXPECT_EQ(decoded.match.flow, 9u);
  EXPECT_EQ(decoded.action, flow::Action::forward(5));
}

TEST(ChannelTest, InOrderDeliveryDespiteJitter) {
  Fixture f;
  ChannelConfig config;
  config.latency =
      sim::LatencyModel::uniform(sim::microseconds(100), sim::milliseconds(10));
  ControlChannel channel = f.make(config, 99);
  for (Xid xid = 0; xid < 50; ++xid)
    channel.send(proto::make_barrier_request(xid));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 50u);
  for (Xid xid = 0; xid < 50; ++xid)
    EXPECT_EQ(f.received[xid].second.xid, xid);  // FIFO per channel
  for (std::size_t i = 1; i < f.received.size(); ++i)
    EXPECT_GE(f.received[i].first, f.received[i - 1].first);
}

TEST(ChannelTest, IndependentChannelsReorderFreely) {
  // The asynchrony of the paper: two switches' channels race.
  Fixture f;
  ChannelConfig slow;
  slow.latency = sim::LatencyModel::constant(sim::milliseconds(10));
  ChannelConfig fast;
  fast.latency = sim::LatencyModel::constant(sim::milliseconds(1));
  ControlChannel to_s1(f.sim, slow, Rng(1));
  ControlChannel to_s2(f.sim, fast, Rng(2));
  std::vector<int> order;
  to_s1.set_receiver([&](const proto::Message&) { order.push_back(1); });
  to_s2.set_receiver([&](const proto::Message&) { order.push_back(2); });
  to_s1.send(proto::make_hello(1));  // sent first...
  to_s2.send(proto::make_hello(2));
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));  // ...but arrives second
}

TEST(ChannelTest, LossSurfacesAsRetransmitDelay) {
  Fixture f;
  ChannelConfig config;
  config.latency = sim::LatencyModel::constant(sim::milliseconds(1));
  config.loss_probability = 1.0;  // would retransmit forever...
  config.retransmit_timeout = sim::milliseconds(30);
  // ...so dial it to lose exactly once via a crafted probability: use 0.5
  // and just assert delivery is never *earlier* than the base latency and
  // everything still arrives.
  config.loss_probability = 0.5;
  ControlChannel channel = f.make(config, 7);
  for (Xid xid = 0; xid < 20; ++xid) channel.send(proto::make_hello(xid));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 20u);
  EXPECT_GT(channel.stats().retransmissions, 0u);
  for (const auto& [at, message] : f.received)
    EXPECT_GE(at, sim::milliseconds(1));
}

TEST(ChannelTest, RepeatedLossSaturatesAtTheMaximumDelay) {
  // Maximal retransmit timeouts: the summed delay of a frame lost several
  // times stays at sim::kMaxDuration instead of growing past it (and
  // wrapping the 64-bit clock).
  Fixture f;
  ChannelConfig config;
  config.latency = sim::LatencyModel::constant(sim::milliseconds(1));
  config.loss_probability = 0.9;
  config.retransmit_timeout = sim::kMaxDuration;
  ControlChannel channel = f.make(config, 7);
  for (Xid xid = 0; xid < 20; ++xid) channel.send(proto::make_hello(xid));
  f.sim.run();
  ASSERT_EQ(f.received.size(), 20u);
  EXPECT_GT(channel.stats().retransmissions, 20u);
  for (const auto& [at, message] : f.received)
    EXPECT_LE(at, sim::kMaxDuration);
}

TEST(ChannelTest, CountsFramesAndBytes) {
  Fixture f;
  ControlChannel channel = f.make(ChannelConfig{});
  channel.send(proto::make_hello(1));
  channel.send(proto::make_barrier_request(2));
  f.sim.run();
  EXPECT_EQ(channel.stats().frames_sent, 2u);
  EXPECT_EQ(channel.stats().bytes_sent, 16u);  // two 8-byte header-only frames
}

proto::Message flow_mod(Xid xid) {
  proto::FlowMod mod;
  mod.match.flow = 3;
  mod.action = flow::Action::forward(4);
  return proto::make_flow_mod(xid, mod);
}

TEST(ChannelTest, EncodedBatchCountsItsElements) {
  // The controller's outbox ships Batch frames as bytes; the channel reads
  // the element count off the header and patches the batch xid.
  Fixture f;
  ControlChannel channel = f.make(ChannelConfig{});
  const std::vector<std::byte> frame = proto::encode(proto::make_batch(
      0, {flow_mod(1), flow_mod(2), proto::make_barrier_request(3)}));
  channel.send_encoded(frame, 9);
  f.sim.run();
  EXPECT_EQ(channel.stats().frames_sent, 1u);
  EXPECT_EQ(channel.stats().messages_sent, 3u);
  EXPECT_EQ(channel.stats().bytes_sent, frame.size());
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].second.xid, 9u);
  EXPECT_EQ(std::get<proto::Batch>(f.received[0].second.body).messages.size(),
            3u);
}

TEST(ChannelTest, BlackholeWindowClosesOnlyOnABatchCarryingABarrier) {
  // drop_next(1) eats one frame, then keeps eating until a frame that
  // carries a barrier request, so no barrier can fence a lost FlowMod.
  // The rule reads batches element by element, for Messages and for
  // encoded frames alike.
  for (const bool encoded : {false, true}) {
    Fixture f;
    ControlChannel channel = f.make(ChannelConfig{});
    const auto send = [&](const proto::Message& message) {
      if (encoded)
        channel.send_encoded(proto::encode(message), message.xid);
      else
        channel.send(message);
    };
    channel.drop_next(1);
    send(proto::make_batch(1, {flow_mod(2), flow_mod(3)}));
    send(proto::make_batch(4, {flow_mod(5), flow_mod(6)}));
    send(proto::make_batch(7, {flow_mod(8), proto::make_barrier_request(9)}));
    send(proto::make_batch(10,
                           {flow_mod(11), proto::make_barrier_request(12)}));
    f.sim.run();
    EXPECT_EQ(channel.stats().frames_dropped, 3u) << "encoded " << encoded;
    EXPECT_EQ(channel.stats().frames_sent, 1u) << "encoded " << encoded;
    ASSERT_EQ(f.received.size(), 1u) << "encoded " << encoded;
    EXPECT_EQ(f.received[0].second.xid, 10u) << "encoded " << encoded;
  }
}

TEST(ChannelTest, DuplexDirectionsAreIndependent) {
  sim::Simulator sim;
  Rng rng(5);
  ChannelConfig config;
  config.latency = sim::LatencyModel::constant(sim::milliseconds(1));
  DuplexChannel duplex(sim, config, rng);
  int to_switch = 0;
  int to_controller = 0;
  duplex.to_switch.set_receiver(
      [&](const proto::Message&) { ++to_switch; });
  duplex.to_controller.set_receiver(
      [&](const proto::Message&) { ++to_controller; });
  duplex.to_switch.send(proto::make_hello(1));
  duplex.to_controller.send(proto::make_hello(2));
  duplex.to_controller.send(proto::make_hello(3));
  sim.run();
  EXPECT_EQ(to_switch, 1);
  EXPECT_EQ(to_controller, 2);
}

TEST(ChannelDeathTest, SendWithoutReceiverAsserts) {
  sim::Simulator sim;
  ControlChannel channel(sim, ChannelConfig{}, Rng(1));
  EXPECT_DEATH(channel.send(proto::make_hello(1)), "receiver");
}

}  // namespace
}  // namespace tsu::channel
