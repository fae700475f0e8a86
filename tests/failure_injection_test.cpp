// Failure injection: the guarantees must survive degraded control
// channels - loss (surfacing as TCP retransmit delays), heavy-tailed
// installs, pathological jitter - and hard faults from the fault-injection
// subsystem (sim/faults.hpp): switch crashes before and after the round
// ack, cold-reboot vs retained-TCAM reconnects, control-link outages,
// frame blackholes, double faults, and rollback. The executor must degrade
// loudly, not silently, on misuse.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/controller.hpp"
#include "tsu/controller/plan_cache.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/verify/transient.hpp"
#include "multiflow_workload.hpp"

namespace tsu::core {
namespace {

const topo::Fig1& fig1() {
  static const topo::Fig1 fig = topo::fig1();
  return fig;
}

update::Schedule wayup_schedule() {
  return plan(fig1().instance, Algorithm::kWayUp).value().schedule;
}

TEST(FailureInjectionTest, LossyChannelStillCompletesAndStaysSecure) {
  ExecutorConfig config;
  config.channel.loss_probability = 0.3;
  config.channel.retransmit_timeout = sim::milliseconds(20);
  const update::Schedule schedule = wayup_schedule();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    const Result<MultiFlowExecutionResult> result =
        execute_multiflow({&fig1().instance}, {&schedule}, config);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().flows[0].traffic.bypassed, 0u)
        << "seed " << seed;
    EXPECT_GT(result.value().flows[0].update_ms(), 0.0);
  }
}

TEST(FailureInjectionTest, LossMakesUpdatesSlowerNotBroken) {
  const update::Schedule schedule = wayup_schedule();
  ExecutorConfig clean;
  clean.seed = 5;
  clean.with_traffic = false;
  ExecutorConfig lossy = clean;
  lossy.channel.loss_probability = 0.4;
  lossy.channel.retransmit_timeout = sim::milliseconds(25);
  const Result<MultiFlowExecutionResult> fast =
      execute_multiflow({&fig1().instance}, {&schedule}, clean);
  const Result<MultiFlowExecutionResult> slow =
      execute_multiflow({&fig1().instance}, {&schedule}, lossy);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_GT(slow.value().flows[0].update_ms(),
            fast.value().flows[0].update_ms());
}

TEST(FailureInjectionTest, HeavyTailedInstallsKeepWaypointSafety) {
  ExecutorConfig config;
  config.switch_config.install_latency = sim::LatencyModel::pareto(
      sim::microseconds(200), sim::milliseconds(200), 1.1);
  const update::Schedule schedule = wayup_schedule();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    const Result<MultiFlowExecutionResult> result =
        execute_multiflow({&fig1().instance}, {&schedule}, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().flows[0].traffic.bypassed, 0u)
        << "seed " << seed;
  }
}

TEST(FailureInjectionTest, ExtremeJitterKeepsPeacockLoopFree) {
  const Result<PlanOutcome> planned =
      plan(fig1().instance, Algorithm::kPeacock);
  ASSERT_TRUE(planned.ok());
  ExecutorConfig config;
  config.channel.latency = sim::LatencyModel::uniform(
      sim::microseconds(10), sim::milliseconds(100));
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    const Result<MultiFlowExecutionResult> result =
        execute_multiflow({&fig1().instance}, {&planned.value().schedule},
                          config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().flows[0].traffic.looped, 0u) << "seed " << seed;
    EXPECT_EQ(result.value().flows[0].traffic.ttl_expired, 0u)
        << "seed " << seed;
  }
}

TEST(FailureInjectionTest, SlowChannelDoesNotReorderWithinSwitch) {
  // With high jitter, per-switch FIFO must still hold: the final rule at
  // every switch is the last one sent (the new path works end to end).
  const update::Schedule schedule = wayup_schedule();
  ExecutorConfig config;
  config.channel.latency = sim::LatencyModel::uniform(
      sim::microseconds(10), sim::milliseconds(50));
  config.with_traffic = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    config.seed = seed;
    const Result<MultiFlowExecutionResult> result =
        execute_multiflow({&fig1().instance}, {&schedule}, config);
    ASSERT_TRUE(result.ok());
  }
}

TEST(FailureInjectionTest, ExecutorRejectsMismatchedQueueInputs) {
  const update::Schedule schedule = wayup_schedule();
  const Result<MultiFlowExecutionResult> empty =
      execute_multiflow({}, {}, ExecutorConfig{});
  EXPECT_FALSE(empty.ok());
  const Result<MultiFlowExecutionResult> mismatched = execute_multiflow(
      {&fig1().instance}, {&schedule, &schedule}, ExecutorConfig{});
  EXPECT_FALSE(mismatched.ok());
}

TEST(FailureInjectionTest, TrafficlessRunsReportNoPackets) {
  ExecutorConfig config;
  config.with_traffic = false;
  const update::Schedule schedule = wayup_schedule();
  const Result<MultiFlowExecutionResult> result =
      execute_multiflow({&fig1().instance}, {&schedule}, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().flows[0].traffic.total, 0u);
  EXPECT_EQ(result.value().flows[0].packets_injected, 0u);
  EXPECT_GT(result.value().flows[0].update_ms(), 0.0);
}

TEST(FailureInjectionTest, RetransmissionsAreCounted) {
  ExecutorConfig config;
  config.seed = 3;
  config.channel.loss_probability = 0.5;
  config.with_traffic = false;
  const update::Schedule schedule = wayup_schedule();
  const Result<MultiFlowExecutionResult> result =
      execute_multiflow({&fig1().instance}, {&schedule}, config);
  ASSERT_TRUE(result.ok());
  // Frames were still all delivered (the update completed); the loss shows
  // up as latency, mirroring TCP under the OpenFlow session.
  EXPECT_GT(result.value().frames_sent, 0u);
}

// ------------------------------------------------------------------ hard
// faults: the fault-injection subsystem against one Peacock-planned flow
// (old 0->1->2->3, new 0->4->5->3) with stretched rounds, so every fault
// lands at a controlled point of the update. Each scenario must converge
// to the never-faulted forwarding state (or, for rollback, the pre-update
// state) with the transient oracle silent.

ExecutorConfig hard_fault_config() {
  ExecutorConfig config;
  config.channel.latency =
      sim::LatencyModel::constant(sim::microseconds(100));
  config.switch_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::milliseconds(1));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  config.warmup = sim::milliseconds(2);    // requests submitted at 2 ms
  config.drain = sim::milliseconds(10);
  config.interval = sim::milliseconds(1);  // stretch the rounds apart
  config.controller.liveness_timeout = sim::milliseconds(3);
  return config;
}

sim::FaultEvent crash_event(double at_ms, NodeId node, double down_ms,
                            bool lose_state) {
  sim::FaultEvent event;
  event.kind = sim::FaultKind::kSwitchCrash;
  event.at = sim::from_ms(at_ms);
  event.node = node;
  event.down_for = sim::from_ms(down_ms);
  event.lose_state = lose_state;
  return event;
}

// Runs the single-flow workload and fails the test on engine error or any
// transient-oracle violation; returns the result for scenario asserts.
MultiFlowExecutionResult run_hard_fault(const testutil::Workload& w,
                                        const ExecutorConfig& config) {
  const Result<MultiFlowExecutionResult> run =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().to_string());
  if (!run.ok()) return {};
  const verify::TransientCheckReport report = verify::check_fault_trace(
      config.faults, run.value().faults, run.value().aggregate,
      w.instances.size(), run.value().flows.size());
  EXPECT_TRUE(report.ok) << report.to_string();
  return run.value();
}

TEST(FailureInjectionTest, CrashBeforeAckReplaysTheLostRound) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  const MultiFlowExecutionResult baseline = run_hard_fault(w, config);

  // 2.05 ms: round 1's FlowMod to the new-path switch is still in flight,
  // so the crash eats it unacknowledged.
  config.faults.add(crash_event(2.05, 4, 2, /*lose_state=*/true));
  const MultiFlowExecutionResult faulted = run_hard_fault(w, config);

  EXPECT_EQ(faulted.final_state_digest, baseline.final_state_digest);
  EXPECT_EQ(faulted.initial_state_digest, baseline.initial_state_digest);
  EXPECT_EQ(faulted.faults.crashes, 1u);
  EXPECT_GE(faulted.faults.resyncs, 1u);
  EXPECT_GE(faulted.faults.frames_lost, 1u);
  ASSERT_EQ(faulted.faults.recovery_ms.size(), 1u);
  EXPECT_GE(faulted.faults.recovery_ms[0], 2.0);  // >= the down window
}

TEST(FailureInjectionTest, CrashAfterAckResyncsTheWipedTables) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  const MultiFlowExecutionResult baseline = run_hard_fault(w, config);

  // 3.0 ms: round 1 is acknowledged; the cold reboot wipes the installed
  // rule, so only the reconnect resync can restore it.
  config.faults.add(crash_event(3.0, 4, 1.5, /*lose_state=*/true));
  const MultiFlowExecutionResult faulted = run_hard_fault(w, config);

  EXPECT_EQ(faulted.final_state_digest, baseline.final_state_digest);
  EXPECT_EQ(faulted.faults.crashes, 1u);
  EXPECT_GE(faulted.faults.resyncs, 1u);
  EXPECT_GE(faulted.faults.resync_frames, 1u);  // the wiped rule came back
}

TEST(FailureInjectionTest, ReconnectResyncDigestEqualsNeverCrashedDigest) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  const MultiFlowExecutionResult baseline = run_hard_fault(w, config);

  ExecutorConfig cold = config;
  cold.faults.add(crash_event(3.0, 4, 1.5, /*lose_state=*/true));
  const MultiFlowExecutionResult cold_run = run_hard_fault(w, cold);

  ExecutorConfig warm = config;
  warm.faults.add(crash_event(3.0, 4, 1.5, /*lose_state=*/false));
  const MultiFlowExecutionResult warm_run = run_hard_fault(w, warm);

  EXPECT_EQ(cold_run.final_state_digest, baseline.final_state_digest);
  EXPECT_EQ(warm_run.final_state_digest, baseline.final_state_digest);
  // The retained-TCAM reconnect only corrects rules whose install was
  // unfenced at crash time; the cold reboot replays the full image.
  EXPECT_LE(warm_run.faults.resync_frames, cold_run.faults.resync_frames);
  EXPECT_GE(warm_run.faults.resyncs, 1u);
}

TEST(FailureInjectionTest, CrashMidRoundIsDrivenToCompletion) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  const MultiFlowExecutionResult baseline = run_hard_fault(w, config);

  // 3.6 ms: around the ingress-flip round at node 0 - whichever side of
  // the ack the crash lands on, the update must converge to the same
  // forwarding state through resync and replay.
  config.faults.add(crash_event(3.6, 0, 2, /*lose_state=*/false));
  const MultiFlowExecutionResult faulted = run_hard_fault(w, config);

  EXPECT_EQ(faulted.final_state_digest, baseline.final_state_digest);
  EXPECT_EQ(faulted.faults.crashes, 1u);
  EXPECT_GE(faulted.faults.resyncs + faulted.faults.retries, 1u);
}

TEST(FailureInjectionTest, RollbackLeavesPreUpdateForwardingState) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  config.controller.failure_response = controller::FailureResponse::kRollback;
  config.controller.resubmit_after_rollback = false;

  // The crash outlives the liveness timeout, so the controller declares
  // the switch dead mid-update and unwinds the rounds already sent.
  config.faults.add(crash_event(2.05, 4, 6, /*lose_state=*/true));
  const MultiFlowExecutionResult result = run_hard_fault(w, config);

  EXPECT_EQ(result.faults.rollbacks, 1u);
  EXPECT_EQ(result.faults.resubmissions, 0u);
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_TRUE(result.flows[0].update.aborted);
  // The inverse FlowMods restored exactly the pre-update forwarding state.
  EXPECT_EQ(result.final_state_digest, result.initial_state_digest);
}

TEST(FailureInjectionTest, RolledBackUpdateResubmitsAndFinishes) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  const MultiFlowExecutionResult baseline = run_hard_fault(w, config);

  config.controller.failure_response = controller::FailureResponse::kRollback;
  config.controller.resubmit_after_rollback = true;  // the default
  config.faults.add(crash_event(2.05, 4, 6, /*lose_state=*/true));
  const MultiFlowExecutionResult result = run_hard_fault(w, config);

  EXPECT_GE(result.faults.rollbacks, 1u);
  EXPECT_GE(result.faults.resubmissions, 1u);
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_FALSE(result.flows[0].update.aborted);
  // The resubmitted update finished: the new path is installed after all.
  EXPECT_EQ(result.final_state_digest, baseline.final_state_digest);
}

TEST(FailureInjectionTest, DoubleFaultOnSameSwitchStillConverges) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  const MultiFlowExecutionResult baseline = run_hard_fault(w, config);

  // The second crash lands while the first reconnect's resync is still in
  // flight, forcing the controller to abandon and redo it.
  config.faults.add(crash_event(2.05, 4, 1, /*lose_state=*/true));
  config.faults.add(crash_event(3.2, 4, 1, /*lose_state=*/true));
  const MultiFlowExecutionResult faulted = run_hard_fault(w, config);

  EXPECT_EQ(faulted.final_state_digest, baseline.final_state_digest);
  EXPECT_EQ(faulted.faults.crashes, 2u);
  EXPECT_GE(faulted.faults.resyncs, 1u);
}

TEST(FailureInjectionTest, LinkFailureMidUpdateHealsWithoutCrash) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  const MultiFlowExecutionResult baseline = run_hard_fault(w, config);

  sim::FaultEvent outage;
  outage.kind = sim::FaultKind::kLinkDown;
  outage.at = sim::from_ms(2.05);  // round 1's frames are in flight
  outage.node = 4;
  outage.down_for = sim::milliseconds(2);
  config.faults.add(outage);
  const MultiFlowExecutionResult faulted = run_hard_fault(w, config);

  EXPECT_EQ(faulted.final_state_digest, baseline.final_state_digest);
  EXPECT_EQ(faulted.faults.crashes, 0u);
  EXPECT_EQ(faulted.faults.link_downs, 1u);
  EXPECT_GE(faulted.faults.resyncs, 1u);
  // The switch never stopped forwarding: a dark control channel is not an
  // outage for the data plane.
  EXPECT_EQ(faulted.aggregate.fault_dropped, 0u);
}

TEST(FailureInjectionTest, BlackholeRecoversViaTimeoutAndRetry) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  const MultiFlowExecutionResult baseline = run_hard_fault(w, config);

  sim::FaultEvent hole;
  hole.kind = sim::FaultKind::kBlackhole;
  hole.at = sim::from_ms(1.9);  // armed just before round 1 is sent
  hole.node = 4;
  hole.frames = 2;  // eats the FlowMod and the barrier
  config.faults.add(hole);
  const MultiFlowExecutionResult faulted = run_hard_fault(w, config);

  EXPECT_EQ(faulted.final_state_digest, baseline.final_state_digest);
  // Silent frame loss never tears the session down: recovery must come
  // from the liveness timeout and a per-switch retry, not a resync.
  EXPECT_EQ(faulted.faults.crashes, 0u);
  EXPECT_EQ(faulted.faults.resyncs, 0u);
  EXPECT_GE(faulted.faults.timeouts, 1u);
  EXPECT_GE(faulted.faults.retries, 1u);
  EXPECT_EQ(faulted.faults.frames_lost, 2u);
}

// ------------------------------------------------------------ plan cache
// A fault-driven resync rewrites shadow-table state, so any plan compiled
// before it may describe a world the switches no longer hold. The
// controller bumps resync_generation() per reconnect handled, and
// PlanCache::lookup must discard (and count) plans from older generations
// instead of serving their stale pre-encoded frames.
TEST(FailureInjectionTest, ResyncInvalidatesCompiledPlans) {
  sim::Simulator sim;
  Rng rng{99};
  controller::ControllerConfig ctrl_config;
  // Fault tolerance on: shadow tables are maintained (fed from the plan's
  // rounds as its frames ship), so the reconnect resync has an image to
  // replay.
  ctrl_config.liveness_timeout = sim::milliseconds(3);
  controller::Controller ctrl(sim, ctrl_config);
  channel::ChannelConfig channel_config;
  channel_config.latency = sim::LatencyModel::constant(sim::microseconds(100));
  switchsim::SwitchConfig switch_config;
  switch_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(50));

  std::map<NodeId, std::unique_ptr<switchsim::SimSwitch>> switches;
  std::vector<std::unique_ptr<channel::DuplexChannel>> channels;
  for (NodeId node : {NodeId{1}, NodeId{2}}) {
    auto sw = std::make_unique<switchsim::SimSwitch>(sim, node, node,
                                                    switch_config, rng.fork());
    auto duplex =
        std::make_unique<channel::DuplexChannel>(sim, channel_config, rng);
    auto* sw_ptr = sw.get();
    auto* duplex_ptr = duplex.get();
    duplex->to_switch.set_receiver(
        [sw_ptr](const proto::Message& m) { sw_ptr->receive(m); });
    duplex->to_controller.set_receiver(
        [&ctrl, node](const proto::Message& m) { ctrl.on_message(node, m); });
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

  controller::UpdateRequest request;
  request.name = "cached-template";
  request.flow = 7;
  proto::FlowMod mod;
  mod.command = proto::FlowModCommand::kAdd;
  mod.priority = 100;
  mod.match.flow = 7;
  mod.action = flow::Action::forward(2);
  request.rounds = {{controller::RoundOp{1, mod, {}}},
                    {controller::RoundOp{2, mod, {}}}};

  controller::PlanCache cache;
  const std::uint64_t key = 0xfeedULL;
  const std::uint64_t gen0 = ctrl.resync_generation();
  std::shared_ptr<const controller::CompiledPlan> plan =
      controller::compile_plan(request, gen0);
  cache.store(key, plan);
  ctrl.submit_plan(plan, std::nullopt);
  sim.run();
  ASSERT_TRUE(ctrl.idle());
  flow::Packet p;
  p.flow = 7;
  EXPECT_TRUE(switches[1]->table().lookup(p).has_value());

  // Warm lookup at the unchanged generation: a hit, same plan object.
  EXPECT_EQ(cache.lookup(key, ctrl.resync_generation()), plan);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);

  // Cold-reboot fault: the reconnect Hello drives a shadow resync, which
  // must bump the generation and restore the wiped rule.
  switches[1]->crash(/*lose_state=*/true);
  EXPECT_FALSE(switches[1]->table().lookup(p).has_value());
  switches[1]->restart();
  sim.run();
  const std::uint64_t gen1 = ctrl.resync_generation();
  EXPECT_GT(gen1, gen0);
  EXPECT_GE(ctrl.stats().faults.resyncs, 1u);
  EXPECT_TRUE(switches[1]->table().lookup(p).has_value());

  // The stale plan is discarded, not served.
  EXPECT_EQ(cache.lookup(key, gen1), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.size(), 0u);

  // Recompile at the post-resync generation: the template is cacheable
  // again and the submission completes normally.
  std::shared_ptr<const controller::CompiledPlan> fresh =
      controller::compile_plan(request, gen1);
  cache.store(key, fresh);
  ctrl.submit_plan(fresh, std::nullopt);
  sim.run();
  EXPECT_TRUE(ctrl.idle());
  EXPECT_EQ(cache.lookup(key, ctrl.resync_generation()), fresh);
  EXPECT_EQ(cache.compiles(), 2u);
  EXPECT_TRUE(switches[2]->table().lookup(p).has_value());
}

TEST(FailureInjectionTest, NonEmptyScheduleDefaultsLivenessDetection) {
  // A fault schedule with fault tolerance left unconfigured must not hang
  // the run: the executor arms the default liveness timeout.
  const testutil::Workload w = testutil::disjoint_workload(1);
  ExecutorConfig config = hard_fault_config();
  config.controller.liveness_timeout = 0;
  config.faults.add(crash_event(2.05, 4, 1, /*lose_state=*/true));
  const MultiFlowExecutionResult result = run_hard_fault(w, config);
  EXPECT_EQ(result.faults.crashes, 1u);
  EXPECT_GE(result.faults.resyncs, 1u);
}

}  // namespace
}  // namespace tsu::core
