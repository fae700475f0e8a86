// Bit-identity guard for the simulation engine. Folds an FNV-1a digest over
// seeded engine runs that together exercise every event source the queue
// orders:
//
//   - 40 seeds of a 64-flow execute_multiflow with a jittered control
//     channel, constant link, install and probe interarrival delays,
//     conflict-aware admission, the adaptive outbox (cancellable flush
//     timers) and probe traffic;
//   - the same runs on 4 greedy-cut shards stepped in parallel (remote-band
//     mailbox deliveries, per-shard queues stepped from worker threads);
//   - a few short execute_service runs (open-loop arrivals, snapshots);
//   - one run under a FaultSchedule with liveness timers, which arms and
//     cancels a timer per switch per round.
//
// Per flow the digest covers the update's start and finish sim times,
// frames, bytes, the final-state digest and the packet oracle's verdict
// counts: what the runs produce. How the engine stepped to get there - the
// per-shard event counts, parallel epochs, horizon stalls and overflow
// posts - goes into a separate stepping digest, so a change that only
// removes events (a probe walking several hops inside one event) moves the
// stepping constant and leaves the outcome constant alone. Both were first
// recorded as one digest, before the event queue gained its constant-delay
// lanes.
//
// The service section runs 8 templates on 32 switches, so templates 5-7
// share the paths of templates 0-2. The constant was once recorded while
// the service plan cache keyed plans by paths and handed templates 5-7 the
// plans (and flow ids) of 0-2. It was re-recorded when the cache key
// became the template index: 0x0633bd99aeba40a7 became 0x47f650b67483ac45,
// the value the old engine gave with that section's plan cache turned off.
// Moving the stepping counters out then split 0x47f650b67483ac45 into the
// outcome digest 0x832b9e28a6e57937 and the stepping digest
// 0x59c8d90ca110f4b7, on the same engine. When probes began to walk
// several hops inside one event (dataplane/traffic.hpp), the outcome
// digests held and the stepping digests were re-recorded: this test's
// 0x59c8d90ca110f4b7 became 0xb423eb709056b8fd as its runs fell from
// 654389 to 262721 events, and the counter test's 0x4ee5cf4742e9bdd0
// became 0x0b83d7af18c713c3 as its runs fell from 316044 to 153463.
// When probe streams began to cross frozen stretches in one event, the
// outcome and timeline digests held and the stepping digests moved again:
// 0xb423eb709056b8fd became 0x490914b78ca8f417 as this test's runs fell
// from 262721 to 196161 events, and 0x0b83d7af18c713c3 became
// 0xd789d5e99a39fc03 as the counter test's fell from 153463 to 148471
// (most of its runs are fault-tolerant, which never freeze).
//
// The outcome digest counts each flow's probe verdicts but not when they
// landed. A timeline digest per test pins that: every flow's timeline
// buckets, their width and its injected packets, over the same closed-loop
// runs (the counter test's include hash-partitioned ones, whose probe
// paths cross shards) and, in this test, over 16 runs with jittered
// probes. Both were recorded before any probe stream was batched:
// 0x3c9c015ba26a7021 in the counter test, and here 0x99288499e85dda7c,
// which became 0xd9b2e994b2dcb55c, on the same engine, when the jittered
// runs joined: without them, a batched verdict recorded at its injection
// time instead of its arrival time passed this test.
//
// A second digest pins the closed-loop call shapes on top of the engine:
// one update on Figure 1, a serializing queue (max_in_flight = 1), one
// merged multi-policy request and a mix of merged and independent groups.
// Its constant was recorded when each shape still had its own entry point;
// execute_multiflow must reproduce all four.
//
// A third digest pins every engine counter - batching, admission, fault
// recovery, the cross-shard protocol, the channels - of the 64-flow pool on
// 1 and 4 shards, clean and under a seeded fault schedule with each failure
// response, plus every service and snapshot counter of one open-loop run.
// A counter summed where it should take the max (or the reverse) when the
// shards' counters fold together changes it. Its stepping counters go into
// a stepping digest of their own, as above.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/core/service.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/topo/instances.hpp"

namespace tsu::core {
namespace {

constexpr std::uint64_t kExpectedDigest = 0x832b9e28a6e57937ULL;
constexpr std::uint64_t kExpectedSteppingDigest = 0x490914b78ca8f417ULL;
constexpr std::uint64_t kExpectedEntryPointDigest = 0x8290ce736e3feec6ULL;
constexpr std::uint64_t kExpectedCounterDigest = 0x6c114b0e978e4b8eULL;
constexpr std::uint64_t kExpectedCounterSteppingDigest = 0xd789d5e99a39fc03ULL;
constexpr std::uint64_t kExpectedTimelineDigest = 0xd9b2e994b2dcb55cULL;
constexpr std::uint64_t kExpectedCounterTimelineDigest = 0x3c9c015ba26a7021ULL;

class Digest {
 public:
  void mix(std::uint64_t value) {
    digest_ ^= value;
    digest_ *= 1099511628211ULL;
  }
  std::uint64_t value() const { return digest_; }

 private:
  std::uint64_t digest_ = 1469598103934665603ULL;
};

void mix_report(Digest& d, const dataplane::MonitorReport& report) {
  d.mix(report.total);
  d.mix(report.delivered);
  d.mix(report.bypassed);
  d.mix(report.looped);
  d.mix(report.blackholed);
  d.mix(report.ttl_expired);
}

void mix_multiflow(Digest& d, const MultiFlowExecutionResult& result) {
  d.mix(result.flows.size());
  for (const ExecutionResult& flow : result.flows) {
    d.mix(flow.update.started);
    d.mix(flow.update.finished);
    d.mix(flow.update.flow_mods_sent);
    d.mix(flow.update.rounds.size());
    d.mix(flow.packets_injected);
    mix_report(d, flow.traffic);
  }
  mix_report(d, result.aggregate);
  d.mix(result.frames_sent);
  d.mix(result.bytes_sent);
  d.mix(result.messages_sent);
  d.mix(result.final_state_digest);
  d.mix(result.makespan);
  d.mix(result.batching.timer_flushes);
  d.mix(result.batching.flush_timers_cancelled);
}

// Where each flow's probe verdicts landed in time: every timeline bucket,
// the bucket width and the packets injected. The outcome digests count
// verdicts; this pins the arrival time each one was recorded at.
void mix_timelines(Digest& d, const MultiFlowExecutionResult& result) {
  d.mix(result.flows.size());
  for (const ExecutionResult& flow : result.flows) {
    d.mix(static_cast<std::uint64_t>(flow.timeline_bucket));
    d.mix(flow.packets_injected);
    d.mix(flow.timeline.size());
    for (const dataplane::ConsistencyMonitor::Bucket& b : flow.timeline) {
      d.mix(b.delivered);
      d.mix(b.bypassed);
      d.mix(b.looped);
      d.mix(b.blackholed);
    }
  }
}

// How the engine stepped a run: events per shard and the parallel
// stepper's epochs, stalls and overflow posts.
void mix_stepping(Digest& d, const controller::ShardStats& sharding) {
  d.mix(sharding.parallel_epochs);
  d.mix(sharding.horizon_stalls);
  d.mix(sharding.overflow_posts);
  d.mix(sharding.events_per_shard.size());
  for (const std::size_t events : sharding.events_per_shard) d.mix(events);
}

ExecutorConfig pool_config(std::uint64_t seed) {
  ExecutorConfig config;
  config.seed = seed;
  config.channel.latency = sim::LatencyModel::uniform(sim::microseconds(80),
                                                      sim::microseconds(120));
  config.switch_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  config.switch_config.batch_replies = true;
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::microseconds(400));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  config.warmup = sim::milliseconds(2);
  config.drain = sim::milliseconds(4);
  config.controller.max_in_flight = 64;
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.batch_window = sim::microseconds(300);
  config.controller.partition = topo::PartitionScheme::kGreedyCut;
  return config;
}

TEST(EngineIdentityTest, EngineRunsAreBitIdentical) {
  Digest d;
  Digest stepping;
  Digest timeline;
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(64, 24).value();

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ExecutorConfig config = pool_config(seed);
    const Result<MultiFlowExecutionResult> single =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(single.ok()) << "seed " << seed << ": "
                             << single.error().to_string();
    mix_multiflow(d, single.value());
    mix_stepping(stepping, single.value().sharding);
    mix_timelines(timeline, single.value());

    config.controller.shards = 4;
    config.controller.exec = sim::ExecMode::kParallel;
    config.controller.threads = 2;
    const Result<MultiFlowExecutionResult> sharded =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(sharded.ok()) << "seed " << seed << " (4 shards): "
                              << sharded.error().to_string();
    EXPECT_EQ(sharded.value().final_state_digest,
              single.value().final_state_digest)
        << "seed " << seed;
    mix_multiflow(d, sharded.value());
    mix_stepping(stepping, sharded.value().sharding);
    mix_timelines(timeline, sharded.value());
  }

  // The runs above inject on a 400 us grid from t = 0 and every probe
  // arrives within about 100 us, so no verdict lands near a 1 ms bucket
  // edge: one recorded at its injection time instead of its arrival time
  // would fall in the same bucket. Jittered injections and links put
  // verdicts next to the edges. These runs go into the timeline digest
  // only.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ExecutorConfig config = pool_config(seed);
    config.traffic_interarrival = sim::LatencyModel::uniform(
        sim::microseconds(300), sim::microseconds(500));
    config.link_latency = sim::LatencyModel::uniform(sim::microseconds(10),
                                                     sim::microseconds(30));
    config.controller.threads = 2;
    for (const std::size_t shards : {1, 4}) {
      config.controller.shards = shards;
      config.controller.exec =
          shards == 1 ? sim::ExecMode::kSequential : sim::ExecMode::kParallel;
      const Result<MultiFlowExecutionResult> run =
          execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
      ASSERT_TRUE(run.ok()) << "jittered seed " << seed << ", " << shards
                            << " shards: " << run.error().to_string();
      mix_timelines(timeline, run.value());
    }
  }

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ServiceConfig config;
    config.exec.seed = seed;
    config.exec.with_traffic = seed % 2 == 0;
    config.flows = 8;
    config.pool_switches = 32;
    config.exec.controller.max_in_flight = 8;
    config.arrival_rate_per_sec = 20000;
    config.target_completions = 80;
    config.snapshot_interval = sim::milliseconds(1);
    const Result<ServiceResult> run = execute_service(config);
    ASSERT_TRUE(run.ok()) << "service seed " << seed << ": "
                          << run.error().to_string();
    const ServiceResult& result = run.value();
    d.mix(result.stats.arrivals);
    d.mix(result.stats.completed);
    d.mix(result.completions.count);
    d.mix(result.completions.last_finished);
    d.mix(result.frames_sent);
    d.mix(result.final_state_digest);
    d.mix(result.sim_duration);
    mix_report(d, result.traffic);
  }

  {
    ExecutorConfig config = pool_config(7);
    config.controller.liveness_timeout = sim::milliseconds(10);
    config.controller.failure_response = controller::FailureResponse::kRollback;
    sim::ChaosOptions options;
    options.node_count = 24;
    options.start_ms = 1.5;
    options.horizon_ms = 6;
    options.crashes = 2;
    options.link_downs = 1;
    options.blackholes = 2;
    options.min_down_ms = 0.5;
    options.max_down_ms = 2.5;
    config.faults = sim::FaultSchedule::random(7, options);
    const Result<MultiFlowExecutionResult> run =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    const MultiFlowExecutionResult& result = run.value();
    EXPECT_GT(result.faults.timeouts + result.faults.resyncs, 0u)
        << "the fault run never exercised recovery";
    mix_multiflow(d, result);
    mix_stepping(stepping, result.sharding);
    mix_timelines(timeline, result);
    d.mix(result.faults.frames_lost);
    d.mix(result.faults.timeouts);
    d.mix(result.faults.resyncs);
    d.mix(result.faults.rollbacks);
    d.mix(result.faults.retries);
  }

  EXPECT_EQ(d.value(), kExpectedDigest) << "digest 0x" << std::hex << d.value();
  EXPECT_EQ(stepping.value(), kExpectedSteppingDigest)
      << "stepping digest 0x" << std::hex << stepping.value();
  EXPECT_EQ(timeline.value(), kExpectedTimelineDigest)
      << "timeline digest 0x" << std::hex << timeline.value();
}

// One policy's outcome: the update that carried it and its probe verdicts.
void mix_policy(Digest& d, const controller::UpdateMetrics& update,
                const dataplane::MonitorReport& traffic) {
  d.mix(update.started);
  d.mix(update.finished);
  d.mix(update.flow_mods_sent);
  d.mix(update.rounds.size());
  mix_report(d, traffic);
}

ExecutorConfig jittery(std::uint64_t seed) {
  ExecutorConfig config;
  config.seed = seed;
  config.channel.latency =
      sim::LatencyModel::uniform(sim::microseconds(100), sim::milliseconds(2));
  config.switch_config.install_latency =
      sim::LatencyModel::lognormal(sim::microseconds(500), 0.8);
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::microseconds(200));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  return config;
}

TEST(EngineIdentityTest, EntryPointRunsAreBitIdentical) {
  Digest d;
  const topo::Fig1 fig = topo::fig1();
  const update::Schedule fig_schedule =
      plan(fig.instance, Algorithm::kWayUp).value().schedule;
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(16, 24).value();

  // One update on Figure 1.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Result<MultiFlowExecutionResult> run =
        execute_multiflow({&fig.instance}, {&fig_schedule}, jittery(seed));
    ASSERT_TRUE(run.ok()) << "fig1 seed " << seed << ": "
                          << run.error().to_string();
    const ExecutionResult& result = run.value().flows.front();
    mix_policy(d, result.update, result.traffic);
    d.mix(result.packets_injected);
    d.mix(run.value().frames_sent);
    d.mix(run.value().bytes_sent);
  }

  // The paper's serializing queue over a 16-flow pool: one request at a
  // time.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ExecutorConfig config = jittery(seed);
    config.controller.max_in_flight = 1;
    config.controller.admission = controller::AdmissionPolicy::kConflictAware;
    const Result<MultiFlowExecutionResult> run =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(run.ok()) << "queue seed " << seed << ": "
                          << run.error().to_string();
    const std::vector<ExecutionResult>& flows = run.value().flows;
    ASSERT_EQ(flows.size(), w.instance_ptrs.size());
    for (const ExecutionResult& flow : flows) {
      mix_policy(d, flow.update, flow.traffic);
      d.mix(flow.packets_injected);
    }
    d.mix(run.value().frames_sent);
    d.mix(run.value().bytes_sent);
  }

  // Three policies merged into one request.
  const std::vector<const update::Instance*> three(
      w.instance_ptrs.begin(), w.instance_ptrs.begin() + 3);
  const std::vector<const update::Schedule*> three_schedules(
      w.schedule_ptrs.begin(), w.schedule_ptrs.begin() + 3);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Result<MultiFlowExecutionResult> run =
        execute_multiflow(three, three_schedules, jittery(seed), {{0, 1, 2}});
    ASSERT_TRUE(run.ok()) << "merged seed " << seed << ": "
                          << run.error().to_string();
    const MultiFlowExecutionResult& result = run.value();
    ASSERT_EQ(result.flows.size(), three.size());
    for (const ExecutionResult& flow : result.flows)
      mix_policy(d, flow.update, flow.traffic);
    d.mix(result.frames_sent);
  }

  // Merged and independent requests composing through admission.
  const std::vector<const update::Instance*> five(
      w.instance_ptrs.begin(), w.instance_ptrs.begin() + 5);
  const std::vector<const update::Schedule*> five_schedules(
      w.schedule_ptrs.begin(), w.schedule_ptrs.begin() + 5);
  const std::vector<std::vector<std::size_t>> groups{{0, 1}, {2}, {3, 4}};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ExecutorConfig config = jittery(seed);
    config.controller.max_in_flight = 3;
    config.controller.admission = controller::AdmissionPolicy::kConflictAware;
    const Result<MultiFlowExecutionResult> run =
        execute_multiflow(five, five_schedules, config, groups);
    ASSERT_TRUE(run.ok()) << "mixed seed " << seed << ": "
                          << run.error().to_string();
    const MultiFlowExecutionResult& result = run.value();
    ASSERT_EQ(result.flows.size(), five.size());
    for (const ExecutionResult& flow : result.flows)
      mix_policy(d, flow.update, flow.traffic);
    d.mix(result.frames_sent);
    d.mix(result.final_state_digest);
    d.mix(result.makespan);
  }

  EXPECT_EQ(d.value(), kExpectedEntryPointDigest)
      << "digest 0x" << std::hex << d.value();
}

// Every engine counter of a closed-loop run, in declaration order, except
// the stepping counters (mix_stepping). wall_ms and threads are wall-clock
// facts of the host, not of the simulation.
void mix_counters(Digest& d, const MultiFlowExecutionResult& result) {
  d.mix(result.frames_sent);
  d.mix(result.bytes_sent);
  d.mix(result.messages_sent);
  d.mix(result.max_in_flight_observed);
  d.mix(result.conflict_edges);
  d.mix(result.blocked_submissions);
  const auto& batching = result.batching;
  d.mix(batching.batches_sent);
  d.mix(batching.messages_coalesced);
  d.mix(batching.timer_flushes);
  d.mix(batching.budget_flushes);
  d.mix(batching.flush_timers_cancelled);
  d.mix(static_cast<std::uint64_t>(batching.max_hold));
  const auto& sharding = result.sharding;
  d.mix(sharding.shards);
  d.mix(static_cast<std::uint64_t>(sharding.exec));
  d.mix(sharding.cross_shard_updates);
  d.mix(sharding.rounds_synced);
  d.mix(static_cast<std::uint64_t>(sharding.sync_overhead));
  d.mix(sharding.partition_cut_weight);
  const sim::FaultStats& faults = result.faults;
  d.mix(faults.crashes);
  d.mix(faults.link_downs);
  d.mix(faults.blackholes);
  d.mix(faults.frames_lost);
  d.mix(faults.timeouts);
  d.mix(faults.resyncs);
  d.mix(faults.resync_frames);
  d.mix(faults.rollbacks);
  d.mix(faults.retries);
  d.mix(faults.resubmissions);
  d.mix(faults.recovery_ms.size());
  for (const double ms : faults.recovery_ms)
    d.mix(std::bit_cast<std::uint64_t>(ms));
  d.mix(result.final_state_digest);
  d.mix(result.makespan);
}

void mix_service_stats(Digest& d, const ServiceStats& stats) {
  d.mix(stats.arrivals);
  d.mix(stats.accepted);
  d.mix(stats.rejected);
  d.mix(stats.submitted);
  d.mix(stats.completed);
  d.mix(stats.aborted);
  d.mix(stats.peak_pending);
  d.mix(stats.peak_controller_depth);
  d.mix(stats.plan_compiles);
  d.mix(stats.plan_hits);
  d.mix(stats.plan_invalidations);
}

void mix_snapshot(Digest& d, const ServiceSnapshot& s) {
  d.mix(s.at);
  d.mix(s.arrivals);
  d.mix(s.accepted);
  d.mix(s.rejected);
  d.mix(s.submitted);
  d.mix(s.completed);
  d.mix(s.pending);
  d.mix(s.controller_depth);
  d.mix(s.steady_state_entries);
  d.mix(s.plan_compiles);
  d.mix(s.plan_hits);
  d.mix(s.plan_invalidations);
  d.mix(std::bit_cast<std::uint64_t>(s.window_throughput_per_sec));
  d.mix(std::bit_cast<std::uint64_t>(s.p50_duration_ms));
  d.mix(std::bit_cast<std::uint64_t>(s.p99_duration_ms));
  d.mix(std::bit_cast<std::uint64_t>(s.p50_wait_ms));
  d.mix(std::bit_cast<std::uint64_t>(s.p99_wait_ms));
}

TEST(EngineIdentityTest, CountersAreBitIdentical) {
  Digest d;
  Digest stepping;
  Digest timeline;
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(64, 24).value();
  sim::ChaosOptions chaos;
  chaos.node_count = 24;
  chaos.start_ms = 1.5;
  chaos.horizon_ms = 6;
  chaos.crashes = 1;
  chaos.link_downs = 1;
  chaos.blackholes = 1;
  chaos.min_down_ms = 0.5;
  chaos.max_down_ms = 2.5;

  // Clean, then faulted under each failure response, on 1 and 4 greedy-cut
  // shards. The greedy cut keeps every pool update on one shard, so a hash
  // partition adds the cross-shard round protocol.
  struct Sharding {
    std::size_t shards;
    topo::PartitionScheme partition;
  };
  std::size_t recovered = 0;
  std::size_t synced = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Sharding sharding :
         {Sharding{1, topo::PartitionScheme::kGreedyCut},
          Sharding{4, topo::PartitionScheme::kGreedyCut},
          Sharding{4, topo::PartitionScheme::kHash}}) {
      for (int variant = 0; variant < 3; ++variant) {
        ExecutorConfig config = pool_config(seed);
        config.controller.shards = sharding.shards;
        config.controller.partition = sharding.partition;
        if (variant > 0) {
          config.controller.liveness_timeout = sim::milliseconds(20);
          config.controller.failure_response =
              variant == 1 ? controller::FailureResponse::kWait
                           : controller::FailureResponse::kRollback;
          config.faults = sim::FaultSchedule::random(seed, chaos);
        }
        const Result<MultiFlowExecutionResult> run =
            execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
        ASSERT_TRUE(run.ok())
            << "seed " << seed << ", " << sharding.shards << " shards, "
            << topo::to_string(sharding.partition) << ", variant " << variant
            << ": " << run.error().to_string();
        mix_counters(d, run.value());
        mix_stepping(stepping, run.value().sharding);
        mix_timelines(timeline, run.value());
        recovered += run.value().faults.resyncs;
        synced += run.value().sharding.rounds_synced;
      }
    }
  }
  EXPECT_GT(recovered, 0u) << "no faulted run exercised recovery";
  EXPECT_GT(synced, 0u) << "no sharded run synced a cross-shard round";

  ServiceConfig config;
  config.exec.seed = 5;
  config.flows = 16;
  config.pool_switches = 48;
  config.exec.controller.max_in_flight = 16;
  config.exec.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.exec.controller.liveness_timeout = sim::milliseconds(20);
  config.arrival_rate_per_sec = 4000;
  config.max_pending = 8;
  config.target_completions = 300;
  config.snapshot_interval = sim::milliseconds(5);
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_GT(result.stats.rejected, 0u) << "the service run never shed load";
  mix_service_stats(d, result.stats);
  d.mix(result.frames_sent);
  d.mix(result.retired_xids);
  d.mix(result.steady_state_entries_final);
  d.mix(result.sim_duration);
  d.mix(result.snapshots.size());
  for (const ServiceSnapshot& snapshot : result.snapshots)
    mix_snapshot(d, snapshot);

  EXPECT_EQ(d.value(), kExpectedCounterDigest)
      << "digest 0x" << std::hex << d.value();
  EXPECT_EQ(stepping.value(), kExpectedCounterSteppingDigest)
      << "stepping digest 0x" << std::hex << stepping.value();
  EXPECT_EQ(timeline.value(), kExpectedCounterTimelineDigest)
      << "timeline digest 0x" << std::hex << timeline.value();
}

}  // namespace
}  // namespace tsu::core
