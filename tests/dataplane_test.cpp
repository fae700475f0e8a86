#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "tsu/dataplane/monitor.hpp"
#include "tsu/dataplane/traffic.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/thread_pool.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/topo/partition.hpp"

namespace tsu::dataplane {
namespace {

// A data plane of default switches on a group of `shards` shards, split
// into contiguous blocks of switch ids; one shard is a single queue.
struct Plane {
  sim::ShardedSim sim;
  const topo::SwitchPartition partition;
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches;

  explicit Plane(std::size_t nodes, std::size_t shards = 1)
      : sim(shards),
        partition(shards, topo::PartitionScheme::kBlock, nodes),
        switches(nodes, nullptr) {
    switchsim::SwitchConfig config;
    for (NodeId v = 0; v < nodes; ++v) {
      storage.push_back(std::make_unique<switchsim::SimSwitch>(
          sim.shard(partition.shard_of(v)), v, v, config, Rng(v + 1)));
      switches[v] = storage.back().get();
    }
  }

  // Directly installs a forwarding rule (bypassing the control channel).
  void rule(NodeId at, FlowId flow, flow::Action action) {
    switches[at]->table().add(
        flow::FlowRule{flow::Match::exact_flow(flow), action, 100, 0});
  }
  // Flow `flow` forwards along `path` and is delivered at its last switch.
  void chain(FlowId flow, const std::vector<NodeId>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      rule(path[i], flow, flow::Action::forward(path[i + 1]));
    rule(path.back(), flow, flow::Action::deliver());
  }
  void freeze_until(sim::SimTime until) {
    for (switchsim::SimSwitch* sw : switches) sw->freeze_until(until);
  }
};

// Every report count, then the timeline bucket by bucket.
std::vector<std::size_t> verdicts_of(const ConsistencyMonitor& monitor) {
  const MonitorReport& report = monitor.report();
  std::vector<std::size_t> verdicts{
      report.total,      report.delivered,   report.bypassed,
      report.looped,     report.blackholed,  report.ttl_expired,
      report.fault_dropped};
  for (const ConsistencyMonitor::Bucket& bucket : monitor.timeline())
    verdicts.insert(verdicts.end(), {bucket.delivered, bucket.bypassed,
                                     bucket.looped, bucket.blackholed});
  return verdicts;
}

TrafficConfig config_for(NodeId ingress, NodeId egress,
                         std::optional<NodeId> waypoint,
                         sim::SimTime stop = sim::milliseconds(10)) {
  TrafficConfig config;
  config.flow = 1;
  config.ingress = ingress;
  config.egress = egress;
  config.waypoint = waypoint;
  config.interarrival = sim::LatencyModel::constant(sim::milliseconds(1));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(10));
  config.stop = stop;
  return config;
}

TEST(TrafficTest, DeliversAlongStablePath) {
  Plane plane(4);
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::forward(3));
  plane.rule(3, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.partition, plane.switches,
                       config_for(0, 3, std::nullopt), Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(source.injected(), 10u);  // 1/ms for 10 ms, starting at t=0
  EXPECT_EQ(monitor.report().delivered, 10u);
  EXPECT_EQ(monitor.report().total, 10u);
  EXPECT_EQ(monitor.report().total, source.injected());
}

TEST(TrafficTest, WaypointCrossingRecognized) {
  Plane plane(3);
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.partition, plane.switches,
                       config_for(0, 2, NodeId{1}), Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().delivered, monitor.report().total);
  EXPECT_EQ(monitor.report().bypassed, 0u);
}

TEST(TrafficTest, WaypointBypassFlagged) {
  Plane plane(3);
  // Route skips switch 1 (the "firewall").
  plane.rule(0, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.partition, plane.switches,
                       config_for(0, 2, NodeId{1}), Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().bypassed, monitor.report().total);
  EXPECT_EQ(monitor.report().delivered, 0u);
  EXPECT_GT(monitor.report().bypass_rate(), 0.99);
}

TEST(TrafficTest, LoopDetectedOnRevisit) {
  Plane plane(3);
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::forward(1));  // 1 <-> 2 loop
  ConsistencyMonitor monitor;
  // ingress == egress: switch 0 has no deliver rule, so packets forward
  // into the loop and must be classified as looped on the revisit of 1.
  const TrafficConfig config =
      config_for(0, 0, std::nullopt, sim::milliseconds(3));
  TrafficSource source(plane.sim, plane.partition, plane.switches, config,
                       Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_GT(monitor.report().total, 0u);
  EXPECT_EQ(monitor.report().looped, monitor.report().total);
}

TEST(TrafficTest, BlackholeOnMissingRule) {
  Plane plane(3);
  plane.rule(0, 1, flow::Action::forward(1));  // 1 has no rule
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.partition, plane.switches,
                       config_for(0, 2, std::nullopt, sim::milliseconds(3)),
                       Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().blackholed, monitor.report().total);
}

TEST(TrafficTest, ExplicitDropCountsAsBlackhole) {
  Plane plane(2);
  plane.rule(0, 1, flow::Action::drop());
  ConsistencyMonitor monitor;
  TrafficSource source(plane.sim, plane.partition, plane.switches,
                       config_for(0, 1, std::nullopt, sim::milliseconds(2)),
                       Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().blackholed, monitor.report().total);
}

TEST(TrafficTest, TtlExpiryOnLongDetour) {
  // A forward chain longer than the TTL: no revisit, but the packet dies.
  constexpr std::size_t kNodes = 40;
  Plane plane(kNodes);
  for (NodeId v = 0; v + 1 < kNodes; ++v)
    plane.rule(v, 1, flow::Action::forward(v + 1));
  plane.rule(kNodes - 1, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficConfig config = config_for(0, kNodes - 1, std::nullopt,
                                    sim::milliseconds(2));
  config.ttl = 10;
  TrafficSource source(plane.sim, plane.partition, plane.switches, config,
                       Rng(9), monitor);
  source.start();
  plane.sim.run();
  EXPECT_EQ(monitor.report().ttl_expired, monitor.report().total);
}

TEST(TrafficTest, RulesChangingMidFlightAffectPackets) {
  Plane plane(4);
  plane.rule(0, 1, flow::Action::forward(1));
  plane.rule(1, 1, flow::Action::forward(2));
  plane.rule(2, 1, flow::Action::forward(3));
  plane.rule(3, 1, flow::Action::deliver());
  ConsistencyMonitor monitor;
  TrafficConfig config = config_for(0, 3, std::nullopt,
                                    sim::milliseconds(10));
  config.link_latency = sim::LatencyModel::constant(sim::milliseconds(1));
  TrafficSource source(plane.sim, plane.partition, plane.switches, config,
                       Rng(9), monitor);
  source.start();
  // While packets are in flight, break the path at switch 2.
  plane.sim.schedule(sim::milliseconds(5), [&plane]() {
    plane.switches[2]->table().clear();
  });
  plane.sim.run();
  EXPECT_GT(monitor.report().delivered, 0u);
  EXPECT_GT(monitor.report().blackholed, 0u);
  EXPECT_EQ(monitor.report().delivered + monitor.report().blackholed,
            monitor.report().total);
}

// ------------------------------------------------- same-instant ordering --

// One probe down the chain 0->1->2->3 with 20 us links, injected at t = 0,
// reaches switch 3 at 60 us. A modify-to-drop FlowMod for its flow is
// handed to switch 3 at 60 us minus the install time, so the rule changes
// at 60 us too. Hop by hop, the probe's last hop is queued at 40 us, when
// it reaches switch 2: an install that started before then lands first and
// drops the probe, one that started after lands second and lets it through.
PacketOutcome same_instant_outcome(sim::Duration install) {
  sim::ShardedSim group(1);
  const topo::SwitchPartition partition;
  sim::Simulator& simulator = group.shard(0);

  switchsim::SwitchConfig sw_config;
  sw_config.install_latency = sim::LatencyModel::constant(install);
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches(4, nullptr);
  for (NodeId v = 0; v < 4; ++v) {
    storage.push_back(std::make_unique<switchsim::SimSwitch>(
        simulator, v, v, sw_config, Rng(v + 1)));
    switches[v] = storage.back().get();
    switches[v]->table().add(flow::FlowRule{
        flow::Match::exact_flow(1),
        v == 3 ? flow::Action::deliver() : flow::Action::forward(v + 1), 100,
        0});
  }

  TrafficConfig config = config_for(0, 3, std::nullopt, 1);
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  ConsistencyMonitor monitor;
  TrafficSource source(group, partition, switches, config, Rng(9), monitor);

  proto::FlowMod drop;
  drop.command = proto::FlowModCommand::kModify;
  drop.match = flow::Match::exact_flow(1);
  drop.action = flow::Action::drop();
  simulator.schedule_at(sim::microseconds(60) - install, [&]() {
    switches[3]->receive(proto::make_flow_mod(1, drop));
  });
  source.start();
  group.run();

  const MonitorReport& report = monitor.report();
  EXPECT_EQ(report.total, 1u);
  EXPECT_EQ(switches[3]->flow_mods_applied(), 1u);
  return report.blackholed == 1 ? PacketOutcome::kBlackholed
                                : PacketOutcome::kDelivered;
}

TEST(TrafficTest, SameInstantRuleChangeKeepsHopByHopOrder) {
  EXPECT_EQ(same_instant_outcome(sim::microseconds(50)),
            PacketOutcome::kBlackholed);
  EXPECT_EQ(same_instant_outcome(sim::microseconds(30)),
            PacketOutcome::kBlackholed);
  EXPECT_EQ(same_instant_outcome(sim::microseconds(10)),
            PacketOutcome::kDelivered);
}

// ------------------------------------------------------ cross-shard walk --

// What a probe run leaves behind: every report count, the timeline bucket
// by bucket, and the events each shard fired.
struct ChainRun {
  std::vector<std::size_t> verdicts;
  std::vector<std::size_t> events_per_shard;
  std::size_t injected = 0;
};

// Probes down the chain 0->1->2->3 (waypoint 2, 10 us links, one packet
// every 50 us for 6 ms) while FlowMods with a constant 50 us install
// reroute it: switch 2 drops from 1.5 ms, loops back to 1 from 2.5 ms and
// forwards again from 3.5 ms; switch 1 skips the waypoint from 4.5 ms.
// A kBlock partition of the 4 switches into 2 shards puts 0 and 1 on
// shard 0 and 2 and 3 on shard 1, so every packet crosses a shard
// boundary, and the looped ones cross it back.
ChainRun cross_shard_chain_run(std::size_t shards, bool parallel) {
  constexpr sim::Duration kInstall = sim::microseconds(50);
  constexpr sim::Duration kLink = sim::microseconds(10);
  sim::ShardedSim group(shards);
  const topo::SwitchPartition partition(shards, topo::PartitionScheme::kBlock,
                                        4);
  switchsim::SwitchConfig sw_config;
  sw_config.install_latency = sim::LatencyModel::constant(kInstall);
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches(4, nullptr);
  for (NodeId v = 0; v < 4; ++v) {
    storage.push_back(std::make_unique<switchsim::SimSwitch>(
        group.shard(partition.shard_of(v)), v, v, sw_config, Rng(v + 1)));
    switches[v] = storage.back().get();
    switches[v]->table().add(flow::FlowRule{
        flow::Match::exact_flow(1),
        v == 3 ? flow::Action::deliver() : flow::Action::forward(v + 1), 100,
        0});
  }
  // Each FlowMod is handed to its switch on the switch's own shard, so its
  // rule changes at `at`.
  auto reroute = [&](NodeId at_switch, sim::SimTime at, flow::Action action) {
    proto::FlowMod mod;
    mod.command = proto::FlowModCommand::kModify;
    mod.match = flow::Match::exact_flow(1);
    mod.action = action;
    group.schedule_on(partition.shard_of(at_switch), at - kInstall,
                      [sw = switches[at_switch], mod]() {
                        sw->receive(proto::make_flow_mod(1, mod));
                      });
  };
  reroute(2, sim::microseconds(1500), flow::Action::drop());
  reroute(2, sim::microseconds(2500), flow::Action::forward(1));
  reroute(2, sim::microseconds(3500), flow::Action::forward(3));
  reroute(1, sim::microseconds(4500), flow::Action::forward(3));

  TrafficConfig config = config_for(0, 3, NodeId{2}, sim::milliseconds(6));
  config.interarrival = sim::LatencyModel::constant(sim::microseconds(50));
  config.link_latency = sim::LatencyModel::constant(kLink);
  ConsistencyMonitor monitor(sim::milliseconds(1));
  TrafficSource source(group, partition, switches, config, Rng(9), monitor);
  source.start();
  if (parallel) {
    sim::ThreadPool pool(2);
    group.run_parallel(pool, kLink);
    EXPECT_GT(group.parallel_epochs(), 0u);
  } else {
    group.run();
  }

  ChainRun run;
  run.verdicts = verdicts_of(monitor);
  run.events_per_shard = group.events_per_shard();
  run.injected = source.injected();
  return run;
}

TEST(TrafficTest, CrossShardWalkMatchesOneShard) {
  const ChainRun one = cross_shard_chain_run(1, false);
  const ChainRun two = cross_shard_chain_run(2, false);
  const ChainRun two_parallel = cross_shard_chain_run(2, true);
  // 120 packets; the reroutes produce every verdict the chain can show.
  ASSERT_EQ(one.injected, 120u);
  EXPECT_EQ(one.verdicts[0], one.injected);
  for (std::size_t i = 1; i <= 4; ++i)
    EXPECT_GT(one.verdicts[i], 0u) << "verdict " << i;
  EXPECT_EQ(two.injected, one.injected);
  EXPECT_EQ(two.verdicts, one.verdicts);
  EXPECT_EQ(two_parallel.injected, one.injected);
  EXPECT_EQ(two_parallel.verdicts, one.verdicts);
  ASSERT_EQ(two.events_per_shard.size(), 2u);
  EXPECT_GT(two.events_per_shard[1], 0u);
  EXPECT_EQ(two_parallel.events_per_shard, two.events_per_shard);
}

// --------------------------------------------------------- frozen streams --

// The verdicts a frozen walk can leave for a batch, by index in
// verdicts_of().
enum Verdict : std::size_t {
  kDelivered = 1,
  kBypassed = 2,
  kLooped = 3,
  kBlackholed = 4,
  kTtlExpired = 5,
};

// One probe stream over fixed tables that give every packet `verdict`,
// for 10 ms, on one shard whose switches are frozen until `frozen_until`
// (0: not frozen). Injections and links are jittered unless `steady`,
// which injects every 100 us over 10 us links. Default switches install in
// a lognormal time with no lower bound, so an unfrozen walk queues every
// hop.
ChainRun stream_run(Verdict verdict, sim::SimTime frozen_until,
                    bool steady = false) {
  Plane plane(12);
  TrafficConfig config = config_for(0, 3, NodeId{2}, sim::milliseconds(10));
  config.interarrival =
      steady ? sim::LatencyModel::constant(sim::microseconds(100))
             : sim::LatencyModel::uniform(sim::microseconds(50),
                                          sim::microseconds(150));
  config.link_latency =
      steady ? sim::LatencyModel::constant(sim::microseconds(10))
             : sim::LatencyModel::uniform(sim::microseconds(5),
                                          sim::microseconds(25));
  switch (verdict) {
    case kDelivered: plane.chain(1, {0, 1, 2, 3}); break;
    case kBypassed: plane.chain(1, {0, 1, 3}); break;
    case kLooped:
      plane.chain(1, {0, 1, 2});
      plane.rule(2, 1, flow::Action::forward(1));
      break;
    case kBlackholed: plane.rule(0, 1, flow::Action::forward(1)); break;
    case kTtlExpired:
      plane.chain(1, {0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 2, 3});
      config.ttl = 6;
      break;
  }
  if (frozen_until != 0) plane.freeze_until(frozen_until);
  ConsistencyMonitor monitor(sim::microseconds(500));
  TrafficSource source(plane.sim, plane.partition, plane.switches, config,
                       Rng(9), monitor);
  source.start();
  plane.sim.run();
  ChainRun run;
  run.verdicts = verdicts_of(monitor);
  run.events_per_shard = plane.sim.events_per_shard();
  run.injected = source.injected();
  return run;
}

TEST(FrozenStreamTest, BatchMatchesEventByEventForEveryVerdict) {
  constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max();
  struct Case {
    Verdict verdict;
    std::size_t links;  // links each packet crosses
  };
  for (const Case c : {Case{kDelivered, 3}, Case{kBypassed, 2},
                       Case{kLooped, 3}, Case{kBlackholed, 1},
                       Case{kTtlExpired, 5}}) {
    const ChainRun open = stream_run(c.verdict, 0);
    const ChainRun frozen = stream_run(c.verdict, kNever);
    ASSERT_EQ(open.injected, 98u) << "verdict " << c.verdict;
    EXPECT_EQ(open.verdicts[c.verdict], open.injected)
        << "verdict " << c.verdict;
    EXPECT_EQ(frozen.injected, open.injected) << "verdict " << c.verdict;
    EXPECT_EQ(frozen.verdicts, open.verdicts) << "verdict " << c.verdict;
    // Unfrozen, each packet costs its inject event and one per link, and
    // a last inject event finds the stop time.
    EXPECT_EQ(open.events_per_shard,
              std::vector<std::size_t>{98 * (c.links + 1) + 1})
        << "verdict " << c.verdict;
    // Frozen: the first inject event walks and batches every packet; the
    // second finds the stop time.
    EXPECT_EQ(frozen.events_per_shard, std::vector<std::size_t>{2})
        << "verdict " << c.verdict;
  }
}

TEST(FrozenStreamTest, FiniteFreezeBatchesOnlyWalksThatEndInsideIt) {
  // 100 packets, one every 100 us, each over three 10 us links. Frozen
  // until 5 ms, the packets injected at 100..4900 us end their walks
  // before then and join the batch of the packet injected at 0; the
  // packet at 5 ms gets an inject event, and from there on every hop
  // costs an event, as unfrozen.
  const ChainRun open = stream_run(kDelivered, 0, true);
  const ChainRun frozen = stream_run(kDelivered, sim::milliseconds(5), true);
  ASSERT_EQ(open.injected, 100u);
  EXPECT_EQ(frozen.injected, open.injected);
  EXPECT_EQ(frozen.verdicts, open.verdicts);
  EXPECT_EQ(open.events_per_shard, std::vector<std::size_t>{100 * 4 + 1});
  EXPECT_EQ(frozen.events_per_shard, std::vector<std::size_t>{1 + 50 * 4 + 1});
  // Arrival times kept the verdicts in their 500 us buckets.
  EXPECT_EQ(open.verdicts.size(), 7u + 4 * 20);

  // Jittered, the batch stops at the first packet whose three links could
  // reach 5 ms at 25 us each.
  const ChainRun jittered_open = stream_run(kDelivered, 0);
  const ChainRun jittered = stream_run(kDelivered, sim::milliseconds(5));
  EXPECT_EQ(jittered.injected, jittered_open.injected);
  EXPECT_EQ(jittered.verdicts, jittered_open.verdicts);
  EXPECT_EQ(jittered_open.events_per_shard, std::vector<std::size_t>{393});
  EXPECT_EQ(jittered.events_per_shard, std::vector<std::size_t>{199});
}

TEST(FrozenStreamTest, StreamCrossingShardsKeepsAnEventPerPacket) {
  // Switches 0 and 1 on shard 0, 2 and 3 on shard 1. Flow 1 crosses to
  // shard 1; flow 2 stays on shard 0 and batches.
  const auto run = [](bool frozen, bool parallel) {
    Plane plane(4, 2);
    plane.chain(1, {0, 1, 2, 3});
    plane.chain(2, {0, 1});
    if (frozen) plane.freeze_until(std::numeric_limits<sim::SimTime>::max());
    TrafficConfig crossing = config_for(0, 3, NodeId{2}, sim::milliseconds(5));
    crossing.interarrival = sim::LatencyModel::uniform(sim::microseconds(50),
                                                       sim::microseconds(150));
    crossing.link_latency = sim::LatencyModel::uniform(sim::microseconds(5),
                                                       sim::microseconds(25));
    TrafficConfig local = crossing;
    local.flow = 2;
    local.egress = 1;
    local.waypoint.reset();
    ConsistencyMonitor crossing_monitor(sim::microseconds(500));
    ConsistencyMonitor local_monitor(sim::microseconds(500));
    TrafficSource crossing_source(plane.sim, plane.partition, plane.switches,
                                  crossing, Rng(9), crossing_monitor);
    TrafficSource local_source(plane.sim, plane.partition, plane.switches,
                               local, Rng(10), local_monitor);
    crossing_source.start();
    local_source.start();
    if (parallel) {
      sim::ThreadPool pool(2);
      plane.sim.run_parallel(pool, sim::microseconds(5));
      EXPECT_GT(plane.sim.parallel_epochs(), 0u);
    } else {
      plane.sim.run();
    }
    ChainRun result;
    result.verdicts = verdicts_of(crossing_monitor);
    const std::vector<std::size_t> local_verdicts = verdicts_of(local_monitor);
    result.verdicts.insert(result.verdicts.end(), local_verdicts.begin(),
                           local_verdicts.end());
    result.events_per_shard = plane.sim.events_per_shard();
    result.injected = crossing_source.injected() + local_source.injected();
    return result;
  };
  const ChainRun open = run(false, false);
  const ChainRun frozen = run(true, false);
  const ChainRun frozen_parallel = run(true, true);
  ASSERT_EQ(open.injected, 49u + 52u);
  EXPECT_EQ(frozen.injected, open.injected);
  EXPECT_EQ(frozen.verdicts, open.verdicts);
  EXPECT_EQ(frozen_parallel.injected, open.injected);
  EXPECT_EQ(frozen_parallel.verdicts, open.verdicts);
  EXPECT_EQ(frozen_parallel.events_per_shard, frozen.events_per_shard);
  // 49 packets of flow 1 and 52 of flow 2. Unfrozen, every hop costs an
  // event. Frozen, flow 1 still costs its inject event on shard 0 and the
  // hand-off on shard 1 per packet, plus the inject that finds the stop
  // time; flow 2's whole stream costs two events.
  EXPECT_EQ(open.events_per_shard, (std::vector<std::size_t>{204, 98}));
  EXPECT_EQ(frozen.events_per_shard,
            (std::vector<std::size_t>{49 + 1 + 2, 49}));
}

// ---------------------------------------------------------------- monitor --

TEST(MonitorTest, ReportAggregates) {
  ConsistencyMonitor monitor;
  monitor.record(0, PacketOutcome::kDelivered);
  monitor.record(sim::milliseconds(1), PacketOutcome::kBypassedWaypoint);
  monitor.record(sim::milliseconds(2), PacketOutcome::kLooped);
  monitor.record(sim::milliseconds(2), PacketOutcome::kBlackholed);
  monitor.record(sim::milliseconds(3), PacketOutcome::kTtlExpired);
  const MonitorReport& report = monitor.report();
  EXPECT_EQ(report.total, 5u);
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.bypassed, 1u);
  EXPECT_DOUBLE_EQ(report.violation_rate(), 0.8);
  EXPECT_DOUBLE_EQ(report.bypass_rate(), 0.2);
}

TEST(MonitorTest, TimelineBucketsByTime) {
  ConsistencyMonitor monitor(sim::milliseconds(1));
  monitor.record(sim::microseconds(100), PacketOutcome::kDelivered);
  monitor.record(sim::microseconds(900), PacketOutcome::kDelivered);
  monitor.record(sim::milliseconds(2) + 1, PacketOutcome::kBypassedWaypoint);
  const auto& timeline = monitor.timeline();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].delivered, 2u);
  EXPECT_EQ(timeline[1].delivered, 0u);
  EXPECT_EQ(timeline[2].bypassed, 1u);
  EXPECT_NE(monitor.timeline_to_string().find("BYPASSED"), std::string::npos);
}

TEST(MonitorTest, TimelineStopsAtItsBucketLimit) {
  constexpr std::size_t kLimit = ConsistencyMonitor::kMaxTimelineBuckets;
  ConsistencyMonitor monitor(sim::milliseconds(1));
  monitor.record(sim::milliseconds(kLimit - 1), PacketOutcome::kDelivered);
  EXPECT_FALSE(monitor.timeline_overflowed());
  ASSERT_EQ(monitor.timeline().size(), kLimit);
  // Arrivals past the last bucket - one a 1e9 ms link would produce - count
  // in the report and leave the timeline as it was.
  monitor.record(sim::milliseconds(kLimit), PacketOutcome::kDelivered);
  monitor.record(sim::milliseconds(1'000'000'000'000ULL),
                 PacketOutcome::kBypassedWaypoint);
  EXPECT_TRUE(monitor.timeline_overflowed());
  EXPECT_EQ(monitor.timeline().size(), kLimit);
  EXPECT_EQ(monitor.timeline().back().delivered, 1u);
  EXPECT_EQ(monitor.report().total, 3u);
  EXPECT_EQ(monitor.report().bypassed, 1u);
}

TEST(MonitorTest, OutcomeNames) {
  EXPECT_STREQ(to_string(PacketOutcome::kBypassedWaypoint),
               "bypassed-waypoint");
  EXPECT_STREQ(to_string(PacketOutcome::kTtlExpired), "ttl-expired");
}

TEST(MonitorTest, EmptyReportRatesAreZero) {
  const MonitorReport report;
  EXPECT_DOUBLE_EQ(report.violation_rate(), 0.0);
  EXPECT_DOUBLE_EQ(report.bypass_rate(), 0.0);
}

}  // namespace
}  // namespace tsu::dataplane
