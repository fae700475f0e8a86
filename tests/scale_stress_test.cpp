// Scale/stress harness for the concurrent update engine: 1000+ flows over
// 200+ switches under both admission policies and the paper's serializing
// queue (max_in_flight = 1), with the consistency monitor as safety
// oracle. Asserts zero transient violations everywhere, honest parallelism
// (conflict-aware beats the serial queue on makespan and matches blind on
// this rule-disjoint workload), and a wall-clock budget.
//
// Registered at full scale as a Release CTest with an explicit TIMEOUT
// (see CMakeLists.txt); Debug and sanitizer builds compile a slim variant
// (TSU_STRESS_SLIM: 100 flows x 32 switches, wall-clock budget waived) so
// ASan/UBSan exercise the stress path too instead of skipping it.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/verify/transient.hpp"

namespace tsu::core {
namespace {

#ifdef TSU_STRESS_SLIM
constexpr std::size_t kFlows = 100;
constexpr std::size_t kSwitches = 32;   // 5 blocks of 6: 20 flows/block
constexpr std::size_t kChaosSeeds = 50;
constexpr std::size_t kChaosFlows = 20;
constexpr std::size_t kChaosSwitches = 18;
#else
constexpr std::size_t kFlows = 1000;
constexpr std::size_t kSwitches = 210;  // 35 blocks of 6: ~29 flows/block
constexpr double kWallClockBudgetSeconds = 60.0;
constexpr std::size_t kChaosSeeds = 500;
constexpr std::size_t kChaosFlows = 40;
constexpr std::size_t kChaosSwitches = 36;
#endif

// Fast control plane so even the fully serialized run stays within the
// budget; sparse per-flow traffic still yields thousands of oracle-checked
// packets in aggregate.
ExecutorConfig stress_config(controller::AdmissionPolicy admission) {
  ExecutorConfig config;
  config.seed = 20260729;
  config.channel.latency = sim::LatencyModel::constant(sim::microseconds(100));
  config.switch_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::milliseconds(10));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  config.warmup = sim::milliseconds(2);
  config.drain = sim::milliseconds(10);
  config.controller.max_in_flight = kFlows;
  // The adaptive outbox at full pressure: heavy cross-flow frame packing
  // with a bounded hold, exercised at scale under every admission policy.
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.batch_window = sim::microseconds(200);
  config.controller.admission = admission;
  return config;
}

void expect_zero_violations(const MultiFlowExecutionResult& result,
                            const char* policy) {
  EXPECT_GT(result.aggregate.total, 0u) << policy;
  EXPECT_EQ(result.aggregate.bypassed, 0u) << policy;
  EXPECT_EQ(result.aggregate.looped, 0u) << policy;
  EXPECT_EQ(result.aggregate.blackholed, 0u) << policy;
}

TEST(ScaleStressTest, ThousandFlowsUnderEveryAdmissionPolicy) {
  const auto wall_start = std::chrono::steady_clock::now();
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(kFlows, kSwitches).value();

  const Result<MultiFlowExecutionResult> blind = execute_multiflow(
      w.instance_ptrs, w.schedule_ptrs,
      stress_config(controller::AdmissionPolicy::kBlind));
  const Result<MultiFlowExecutionResult> conflict_aware = execute_multiflow(
      w.instance_ptrs, w.schedule_ptrs,
      stress_config(controller::AdmissionPolicy::kConflictAware));
  // The paper's serializing message queue: one update in flight.
  ExecutorConfig serial_config =
      stress_config(controller::AdmissionPolicy::kBlind);
  serial_config.controller.max_in_flight = 1;
  const Result<MultiFlowExecutionResult> serial =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, serial_config);

  ASSERT_TRUE(blind.ok()) << blind.error().to_string();
  ASSERT_TRUE(conflict_aware.ok()) << conflict_aware.error().to_string();
  ASSERT_TRUE(serial.ok()) << serial.error().to_string();

  // Safety oracle: zero transient violations under every policy.
  expect_zero_violations(blind.value(), "blind");
  expect_zero_violations(conflict_aware.value(), "conflict_aware");
  expect_zero_violations(serial.value(), "max_in_flight=1");
  ASSERT_EQ(blind.value().flows.size(), kFlows);
  ASSERT_EQ(conflict_aware.value().flows.size(), kFlows);
  ASSERT_EQ(serial.value().flows.size(), kFlows);

  // Rule-level dependency tracking finds NO conflicts here: the flows
  // share switches but never rules, so conflict-aware admission must reach
  // full parallelism (this is exactly where switch-level tracking would
  // have serialized ~29x per block).
  EXPECT_EQ(conflict_aware.value().conflict_edges, 0u);
  EXPECT_EQ(conflict_aware.value().blocked_submissions, 0u);
  EXPECT_EQ(conflict_aware.value().max_in_flight_observed, kFlows);
  EXPECT_EQ(blind.value().max_in_flight_observed, kFlows);

  // The serializing queue really serialized.
  EXPECT_EQ(serial.value().max_in_flight_observed, 1u);

  // Honest parallelism: conflict-aware beats the serial queue by a wide
  // margin and stays within noise of blind admission.
  EXPECT_LT(conflict_aware.value().makespan * 5, serial.value().makespan);
  EXPECT_LE(conflict_aware.value().makespan, blind.value().makespan * 2);

  // Per-flow violation counts: the conflict-aware run reports exactly what
  // the fully serialized run reports, flow by flow.
  for (std::size_t i = 0; i < kFlows; ++i) {
    const dataplane::MonitorReport& ca = conflict_aware.value().flows[i].traffic;
    const dataplane::MonitorReport& s = serial.value().flows[i].traffic;
    ASSERT_EQ(ca.bypassed, s.bypassed) << "flow " << i;
    ASSERT_EQ(ca.looped, s.looped) << "flow " << i;
    ASSERT_EQ(ca.blackholed, s.blackholed) << "flow " << i;
  }

  // The adaptive hold window is bounded even at full scale.
  EXPECT_LE(blind.value().batching.max_hold, sim::microseconds(200));
  EXPECT_LE(conflict_aware.value().batching.max_hold, sim::microseconds(200));
  EXPECT_GT(conflict_aware.value().batching.batches_sent, 0u);

#ifdef TSU_STRESS_SLIM
  (void)wall_start;  // wall-clock means nothing under -O0 / sanitizers
#else
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  EXPECT_LT(wall_seconds, kWallClockBudgetSeconds)
      << "stress run blew its wall-clock budget";
#endif
}

TEST(ScaleStressTest, ShardedFourWayMatchesSingleController) {
  // The sharded controller at full scale: the same pool workload through
  // 4 hash-partitioned shards (nearly every flow spans shards) with
  // switch->controller reply batching on, against the single controller
  // with identical knobs. The final forwarding state must be identical,
  // the safety oracle silent, and the cross-shard round protocol visibly
  // exercised.
  const auto wall_start = std::chrono::steady_clock::now();
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(kFlows, kSwitches).value();

  ExecutorConfig config =
      stress_config(controller::AdmissionPolicy::kConflictAware);
  config.switch_config.batch_replies = true;

  config.controller.shards = 1;
  const Result<MultiFlowExecutionResult> single =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(single.ok()) << single.error().to_string();

  config.controller.shards = 4;
  config.controller.partition = topo::PartitionScheme::kHash;
  const Result<MultiFlowExecutionResult> sharded =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(sharded.ok()) << sharded.error().to_string();

  expect_zero_violations(single.value(), "single");
  expect_zero_violations(sharded.value(), "sharded-4");
  ASSERT_EQ(sharded.value().flows.size(), kFlows);
  EXPECT_EQ(sharded.value().final_state_digest,
            single.value().final_state_digest);

  // Per-flow oracle results match the single controller flow by flow.
  for (std::size_t i = 0; i < kFlows; ++i) {
    const dataplane::MonitorReport& got = sharded.value().flows[i].traffic;
    const dataplane::MonitorReport& want = single.value().flows[i].traffic;
    ASSERT_EQ(got.bypassed, want.bypassed) << "flow " << i;
    ASSERT_EQ(got.looped, want.looped) << "flow " << i;
    ASSERT_EQ(got.blackholed, want.blackholed) << "flow " << i;
  }

  // Hash partitioning scatters each flow's block of 6 switches: the run
  // must have driven the cross-shard protocol hard, and a round only
  // syncs once per cross-shard request round.
  EXPECT_EQ(sharded.value().sharding.shards, 4u);
  EXPECT_GT(sharded.value().sharding.cross_shard_updates, kFlows / 2);
  EXPECT_GT(sharded.value().sharding.rounds_synced,
            sharded.value().sharding.cross_shard_updates);
  // A round's barriers cover the same switch set sharded or not, so the
  // two-phase protocol costs coordination spread, not extra serial work:
  // the sharded makespan stays within 2x of the single controller's.
  EXPECT_LE(sharded.value().makespan, single.value().makespan * 2);

  // The parallel stepper at full scale: the same 4-shard run on a 4-thread
  // pool must be bit-identical to the sequential merge - digest, frames,
  // makespan and the per-shard event schedule.
  config.controller.exec = sim::ExecMode::kParallel;
  config.controller.threads = 4;
  const Result<MultiFlowExecutionResult> parallel =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(parallel.ok()) << parallel.error().to_string();
  expect_zero_violations(parallel.value(), "sharded-4-parallel");
  EXPECT_EQ(parallel.value().final_state_digest,
            sharded.value().final_state_digest);
  EXPECT_EQ(parallel.value().frames_sent, sharded.value().frames_sent);
  EXPECT_EQ(parallel.value().makespan, sharded.value().makespan);
  ASSERT_EQ(parallel.value().sharding.events_per_shard.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_EQ(parallel.value().sharding.events_per_shard[s],
              sharded.value().sharding.events_per_shard[s])
        << "shard " << s;
  EXPECT_GT(parallel.value().sharding.parallel_epochs, 0u);

#ifdef TSU_STRESS_SLIM
  (void)wall_start;
#else
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  EXPECT_LT(wall_seconds, kWallClockBudgetSeconds)
      << "sharded stress run blew its wall-clock budget";
#endif
}

// ----------------------------------------------------------------- chaos
// Random fault schedules against the concurrent engine, with the transient
// safety oracle (verify/transient.hpp) judging every executed trace.

ExecutorConfig chaos_config() {
  ExecutorConfig config = stress_config(controller::AdmissionPolicy::kBlind);
  config.controller.batch_mode = controller::BatchMode::kOff;
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::milliseconds(2));
  config.drain = sim::milliseconds(6);
  config.controller.liveness_timeout = sim::milliseconds(2);
  return config;
}

sim::ChaosOptions chaos_options(std::size_t switches) {
  sim::ChaosOptions options;
  options.node_count = switches;
  options.start_ms = 1.5;  // the update window opens at warmup = 2 ms
  options.horizon_ms = 10;
  options.crashes = 2;
  options.link_downs = 1;
  options.blackholes = 1;
  options.min_down_ms = 0.5;
  options.max_down_ms = 2.5;
  return options;
}

TEST(ScaleStressTest, ChaosSweepFindsNoTransientViolations) {
  // Hundreds of seeded random fault schedules - crashes with and without
  // state loss, control-link flaps, frame blackholes - against the
  // concurrent engine, alternating wait-retry and rollback recovery. Every
  // trace must drain with the oracle silent, and recovery keeps the
  // makespan bounded. Any failure prints the schedule's JSON: replay it
  // with `sim_cli --faults`.
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(kChaosFlows, kChaosSwitches).value();

  const Result<MultiFlowExecutionResult> clean = execute_multiflow(
      w.instance_ptrs, w.schedule_ptrs, chaos_config());
  ASSERT_TRUE(clean.ok()) << clean.error().to_string();
  const sim::Duration clean_makespan = clean.value().makespan;

  std::size_t resyncs = 0, rollbacks = 0, retries = 0;
  for (std::size_t seed = 1; seed <= kChaosSeeds; ++seed) {
    ExecutorConfig config = chaos_config();
    config.faults =
        sim::FaultSchedule::random(seed, chaos_options(kChaosSwitches));
    config.controller.failure_response =
        seed % 2 == 0 ? controller::FailureResponse::kRollback
                      : controller::FailureResponse::kWait;
    const std::string replay = json::write(config.faults.to_json());

    const Result<MultiFlowExecutionResult> run =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(run.ok())
        << "seed " << seed << ": " << run.error().to_string()
        << "\nreplay: " << replay;
    const MultiFlowExecutionResult& result = run.value();

    const verify::TransientCheckReport report = verify::check_fault_trace(
        config.faults, result.faults, result.aggregate, kChaosFlows,
        result.flows.size());
    ASSERT_TRUE(report.ok)
        << "seed " << seed << ": " << report.to_string()
        << "\nreplay: " << replay;

    // Faults cost recovery time, never livelock: the makespan stays within
    // a fixed envelope of the fault-free run.
    EXPECT_LE(result.makespan, clean_makespan + sim::milliseconds(150))
        << "seed " << seed << " makespan blew up\nreplay: " << replay;

    resyncs += result.faults.resyncs;
    rollbacks += result.faults.rollbacks;
    retries += result.faults.retries;
  }
  // The sweep really exercised the recovery machinery, all three arms.
  EXPECT_GT(resyncs, kChaosSeeds);  // >= 1 per seed: 3 session losses each
  EXPECT_GT(rollbacks, 0u);
  EXPECT_GT(retries, 0u);
}

TEST(ScaleStressTest, ChaosAtFullScaleStaysConsistent) {
  // A few random fault schedules against the full pool, single controller
  // and the 4-shard sequential-vs-parallel pair. The sharded runs must
  // stay bit-identical to each other under faults, and every trace passes
  // the oracle.
  const auto wall_start = std::chrono::steady_clock::now();
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(kFlows, kSwitches).value();

  // The pool builds blocks of 6 switches, so only the largest multiple of
  // 6 exists as fault targets (kSwitches = 32 in the slim variant leaves
  // nodes 30..31 unbuilt).
  sim::ChaosOptions options = chaos_options(kSwitches - kSwitches % 6);
  options.crashes = 3;
  options.link_downs = 2;
  options.blackholes = 2;

  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    ExecutorConfig config = chaos_config();
    // The liveness timeout must clear the *loaded* round RTT: with every
    // flow in flight a block switch serializes ~29 flows' installs per
    // round (~3 ms), so the sweep's 2 ms timeout would mark healthy
    // switches dead and storm retries. 25 ms is comfortably above worst
    // case while still catching real blackholes within the drain.
    config.controller.liveness_timeout = sim::milliseconds(25);
    config.faults = sim::FaultSchedule::random(seed, options);
    const std::string replay = json::write(config.faults.to_json());

    const Result<MultiFlowExecutionResult> single =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(single.ok())
        << single.error().to_string() << "\nreplay: " << replay;
    const verify::TransientCheckReport report = verify::check_fault_trace(
        config.faults, single.value().faults, single.value().aggregate,
        kFlows, single.value().flows.size());
    ASSERT_TRUE(report.ok) << report.to_string() << "\nreplay: " << replay;

    config.controller.shards = 4;
    const Result<MultiFlowExecutionResult> sharded =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(sharded.ok())
        << sharded.error().to_string() << "\nreplay: " << replay;
    const verify::TransientCheckReport sharded_report =
        verify::check_fault_trace(config.faults, sharded.value().faults,
                                  sharded.value().aggregate, kFlows,
                                  sharded.value().flows.size());
    ASSERT_TRUE(sharded_report.ok)
        << sharded_report.to_string() << "\nreplay: " << replay;

    // Fault recovery converges to the same forwarding state sharded or
    // not, and the parallel stepper stays bit-identical under faults.
    EXPECT_EQ(sharded.value().final_state_digest,
              single.value().final_state_digest)
        << "seed " << seed << "\nreplay: " << replay;
    config.controller.exec = sim::ExecMode::kParallel;
    config.controller.threads = 4;
    const Result<MultiFlowExecutionResult> parallel =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(parallel.ok())
        << parallel.error().to_string() << "\nreplay: " << replay;
    EXPECT_EQ(parallel.value().final_state_digest,
              sharded.value().final_state_digest)
        << "seed " << seed << "\nreplay: " << replay;
    EXPECT_EQ(parallel.value().frames_sent, sharded.value().frames_sent);
    EXPECT_EQ(parallel.value().makespan, sharded.value().makespan);
    EXPECT_EQ(parallel.value().faults.resyncs,
              sharded.value().faults.resyncs);
    EXPECT_EQ(parallel.value().faults.resync_frames,
              sharded.value().faults.resync_frames);
  }

#ifdef TSU_STRESS_SLIM
  (void)wall_start;
#else
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  EXPECT_LT(wall_seconds, kWallClockBudgetSeconds)
      << "full-scale chaos run blew its wall-clock budget";
#endif
}

}  // namespace
}  // namespace tsu::core
