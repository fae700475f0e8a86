// Sharded-vs-single-controller equivalence, sequential-vs-parallel
// equivalence, and cross-shard liveness.
//
// Equivalence: whatever the shard count, partition scheme, admission
// policy or batch mode, a run must install exactly
// the same final forwarding state as the single controller, complete every
// update, and report the same per-flow safety-oracle outcome (zero
// violations everywhere) - sharding may only change frame interleavings
// and coordination timing, never WHAT gets installed or the transient
// guarantees. 100 seeds x shards in {1, 2, 4, 8}.
//
// Parallel equivalence (the hard deliverable of the parallel stepper,
// sim/sharded.hpp): for every one of those runs, exec = parallel on a
// 4-thread pool must be BIT-IDENTICAL to exec = sequential - same final
// state digest, same frame count, same makespan, same per-flow packet
// oracle, same coordination counters. Parallelism may only change
// wall-clock time, never a single simulated event. A chaos overlay holds
// the same bit-identity while rollback/resync recovery rewrites the
// schedule.
//
// Liveness: 500 seeds of flows deliberately spanning shard boundaries
// (hash partition scatters each flow's switches) under tight per-shard
// capacity and every admission policy. Completion IS the assertion: the
// engine errors out if the simulation drains with updates still pending,
// so any cross-shard admission/capacity deadlock fails the sweep.
//
// TSU_EQUIV_SLIM (ThreadSanitizer CI): same matrices, fewer seeds - TSan's
// ~10x slowdown would blow the job budget at full seed counts, and the
// interleaving coverage comes from the thread schedules, not the seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/json/json.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/verify/transient.hpp"

namespace tsu::core {
namespace {

#ifdef TSU_EQUIV_SLIM
constexpr std::uint64_t kEquivalenceSeeds = 12;
constexpr std::uint64_t kLivenessSeeds = 60;
#else
constexpr std::uint64_t kEquivalenceSeeds = 100;
constexpr std::uint64_t kLivenessSeeds = 500;
#endif

// The sequential run is the baseline; the parallel rerun of the same
// config must reproduce it event-for-event. Everything observable from
// one engine run is compared.
void expect_parallel_bit_identical(const MultiFlowExecutionResult& sequential,
                                   const MultiFlowExecutionResult& parallel,
                                   std::uint64_t seed, std::size_t shards) {
  EXPECT_EQ(parallel.final_state_digest, sequential.final_state_digest)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.frames_sent, sequential.frames_sent)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.bytes_sent, sequential.bytes_sent)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.messages_sent, sequential.messages_sent)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.makespan, sequential.makespan)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.max_in_flight_observed,
            sequential.max_in_flight_observed)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.conflict_edges, sequential.conflict_edges)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.sharding.cross_shard_updates,
            sequential.sharding.cross_shard_updates)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.sharding.rounds_synced,
            sequential.sharding.rounds_synced)
      << "seed " << seed << " shards " << shards;
  EXPECT_EQ(parallel.sharding.sync_overhead,
            sequential.sharding.sync_overhead)
      << "seed " << seed << " shards " << shards;
  // The event SCHEDULE is identical, not just the outcomes: every shard
  // processed exactly the events it processes under the merger.
  ASSERT_EQ(parallel.sharding.events_per_shard.size(),
            sequential.sharding.events_per_shard.size());
  for (std::size_t s = 0; s < parallel.sharding.events_per_shard.size(); ++s)
    EXPECT_EQ(parallel.sharding.events_per_shard[s],
              sequential.sharding.events_per_shard[s])
        << "seed " << seed << " shards " << shards << " shard " << s;
  ASSERT_EQ(parallel.flows.size(), sequential.flows.size());
  for (std::size_t i = 0; i < parallel.flows.size(); ++i) {
    const dataplane::MonitorReport& got = parallel.flows[i].traffic;
    const dataplane::MonitorReport& want = sequential.flows[i].traffic;
    EXPECT_EQ(got.total, want.total)
        << "seed " << seed << " shards " << shards << " flow " << i;
    EXPECT_EQ(got.delivered, want.delivered)
        << "seed " << seed << " shards " << shards << " flow " << i;
    EXPECT_EQ(got.bypassed, want.bypassed)
        << "seed " << seed << " shards " << shards << " flow " << i;
    EXPECT_EQ(got.looped, want.looped)
        << "seed " << seed << " shards " << shards << " flow " << i;
    EXPECT_EQ(got.blackholed, want.blackholed)
        << "seed " << seed << " shards " << shards << " flow " << i;
    EXPECT_EQ(got.ttl_expired, want.ttl_expired)
        << "seed " << seed << " shards " << shards << " flow " << i;
    EXPECT_EQ(parallel.flows[i].packets_injected,
              sequential.flows[i].packets_injected)
        << "seed " << seed << " shards " << shards << " flow " << i;
    EXPECT_EQ(parallel.flows[i].update.finished,
              sequential.flows[i].update.finished)
        << "seed " << seed << " shards " << shards << " flow " << i;
  }
}

ExecutorConfig fast_config(std::uint64_t seed) {
  ExecutorConfig config;
  config.seed = seed;
  config.channel.latency = sim::LatencyModel::constant(sim::microseconds(200));
  config.switch_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(100));
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::milliseconds(1));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  config.warmup = sim::milliseconds(1);
  config.drain = sim::milliseconds(4);
  return config;
}

TEST(ShardEquivalenceTest, ShardCountsMatchSingleControllerAcross100Seeds) {
  constexpr std::size_t kShardCounts[] = {2, 4, 8};
  std::size_t cross_updates_seen = 0;
  for (std::uint64_t seed = 1; seed <= kEquivalenceSeeds; ++seed) {
    Rng rng(seed);
    const std::size_t flows = 3 + rng.index(6);           // 3..8
    const std::size_t switches = 6 * (1 + rng.index(3));  // 6, 12 or 18
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(flows, switches).value();

    ExecutorConfig config = fast_config(seed);
    config.controller.admission =
        rng.index(2) == 0 ? controller::AdmissionPolicy::kBlind
                          : controller::AdmissionPolicy::kConflictAware;
    config.controller.max_in_flight = 1 + rng.index(flows);
    config.controller.batch_mode = rng.index(2) == 0
                                       ? controller::BatchMode::kOff
                                       : controller::BatchMode::kAdaptive;
    config.controller.batch_window = sim::microseconds(50 + rng.index(950));
    config.switch_config.batch_replies = rng.index(2) == 1;
    // Hash scatters a flow's block of switches across shards (the
    // cross-shard stress); block keeps it mostly shard-local.
    config.controller.partition = rng.index(2) == 0
                                      ? topo::PartitionScheme::kHash
                                      : topo::PartitionScheme::kBlock;
    // Half the seeds pace rounds with an inter-round interval, whose timers
    // are kShared events the parallel stepper must order exactly.
    config.interval =
        rng.index(2) == 0 ? 0 : sim::microseconds(200 + 100 * rng.index(8));

    // shards = 1: the single controller, the equivalence baseline. The
    // 1-shard group must also be exec-mode invariant.
    config.controller.shards = 1;
    config.controller.exec = sim::ExecMode::kSequential;
    const Result<MultiFlowExecutionResult> single =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(single.ok()) << "seed " << seed << ": "
                             << single.error().to_string();
    const MultiFlowExecutionResult& baseline = single.value();
    EXPECT_GT(baseline.aggregate.total, 0u) << "seed " << seed;
    EXPECT_EQ(baseline.sharding.shards, 1u);
    EXPECT_EQ(baseline.sharding.cross_shard_updates, 0u);
    {
      config.controller.exec = sim::ExecMode::kParallel;
      config.controller.threads = 4;
      const Result<MultiFlowExecutionResult> single_parallel =
          execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
      ASSERT_TRUE(single_parallel.ok()) << "seed " << seed;
      expect_parallel_bit_identical(baseline, single_parallel.value(), seed,
                                    1);
      config.controller.exec = sim::ExecMode::kSequential;
      config.controller.threads = 0;
    }

    for (const std::size_t shards : kShardCounts) {
      config.controller.shards = shards;
      config.controller.exec = sim::ExecMode::kSequential;
      const Result<MultiFlowExecutionResult> run =
          execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
      ASSERT_TRUE(run.ok()) << "seed " << seed << " shards " << shards
                            << ": " << run.error().to_string();
      const MultiFlowExecutionResult& result = run.value();
      ASSERT_EQ(result.flows.size(), flows);
      cross_updates_seen += result.sharding.cross_shard_updates;

      // The same config on the parallel stepper: bit-identical, seed by
      // seed, shard count by shard count.
      config.controller.exec = sim::ExecMode::kParallel;
      config.controller.threads = 4;
      const Result<MultiFlowExecutionResult> parallel_run =
          execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
      ASSERT_TRUE(parallel_run.ok())
          << "seed " << seed << " shards " << shards << " (parallel): "
          << parallel_run.error().to_string();
      expect_parallel_bit_identical(result, parallel_run.value(), seed,
                                    shards);
      config.controller.exec = sim::ExecMode::kSequential;
      config.controller.threads = 0;

      // Identical final forwarding state, rule by rule.
      EXPECT_EQ(result.final_state_digest, baseline.final_state_digest)
          << "seed " << seed << " shards " << shards;
      // Safety oracle: zero transient violations under every shard count.
      EXPECT_EQ(result.aggregate.bypassed, 0u)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(result.aggregate.looped, 0u)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(result.aggregate.blackholed, 0u)
          << "seed " << seed << " shards " << shards;
      // Per-flow oracle results and message counts match the single
      // controller: sharding repartitions work, it never adds or drops
      // FlowMods.
      for (std::size_t i = 0; i < flows; ++i) {
        const dataplane::MonitorReport& got = result.flows[i].traffic;
        const dataplane::MonitorReport& want = baseline.flows[i].traffic;
        ASSERT_EQ(got.bypassed, want.bypassed)
            << "seed " << seed << " shards " << shards << " flow " << i;
        ASSERT_EQ(got.looped, want.looped)
            << "seed " << seed << " shards " << shards << " flow " << i;
        ASSERT_EQ(got.blackholed, want.blackholed)
            << "seed " << seed << " shards " << shards << " flow " << i;
        EXPECT_EQ(result.flows[i].update.flow_mods_sent,
                  baseline.flows[i].update.flow_mods_sent)
            << "seed " << seed << " shards " << shards << " flow " << i;
      }
    }
  }
  // The sweep must actually have exercised the cross-shard protocol.
  EXPECT_GT(cross_updates_seen, 0u);
}

TEST(ShardEquivalenceTest, ShardsOneIsDeterministicallyReproducible) {
  // The shards = 1 bit-compatibility pin: the sharded engine with one
  // shard reproduces its own digests, frame counts and makespan exactly,
  // run after run (the untouched PR 1-3 suites pin that this path equals
  // the pre-sharding engine's behaviour).
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(8, 12).value();
  ExecutorConfig config = fast_config(42);
  config.controller.max_in_flight = 8;
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.shards = 1;
  const Result<MultiFlowExecutionResult> a =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  const Result<MultiFlowExecutionResult> b =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest);
  EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
  EXPECT_EQ(a.value().makespan, b.value().makespan);
}

TEST(ShardEquivalenceTest, ShardedRunsAreDeterministicPerSeed) {
  // Determinism of the MERGED clock: same seed + same shard count =>
  // identical digests, frames and makespan, so sharded regressions are
  // reproducible.
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(8, 12).value();
  for (const std::size_t shards : {2u, 4u}) {
    ExecutorConfig config = fast_config(42);
    config.controller.max_in_flight = 8;
    config.controller.shards = shards;
    config.controller.partition = topo::PartitionScheme::kHash;
    const Result<MultiFlowExecutionResult> a =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    const Result<MultiFlowExecutionResult> b =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest);
    EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
    EXPECT_EQ(a.value().makespan, b.value().makespan);
    EXPECT_EQ(a.value().sharding.rounds_synced,
              b.value().sharding.rounds_synced);
  }
}

TEST(ShardEquivalenceTest, ParallelRunsAreDeterministicPerSeed) {
  // The parallel determinism pin: one seed, run twice on a 4-thread pool,
  // must process exactly the same number of events on every shard and land
  // on identical digests, frames and makespan - whatever the OS made of
  // the thread schedules. Both partitions that matter: hash (cross-shard
  // heavy, most horizon stalls) and greedy_cut (shard-local, most epochs).
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(8, 12).value();
  for (const topo::PartitionScheme scheme :
       {topo::PartitionScheme::kHash, topo::PartitionScheme::kGreedyCut}) {
    ExecutorConfig config = fast_config(42);
    config.controller.max_in_flight = 8;
    config.controller.admission = controller::AdmissionPolicy::kConflictAware;
    config.controller.batch_mode = controller::BatchMode::kAdaptive;
    config.controller.shards = 4;
    config.controller.partition = scheme;
    config.controller.exec = sim::ExecMode::kParallel;
    config.controller.threads = 4;
    const Result<MultiFlowExecutionResult> a =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    const Result<MultiFlowExecutionResult> b =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(a.ok()) << topo::to_string(scheme);
    ASSERT_TRUE(b.ok()) << topo::to_string(scheme);
    ASSERT_EQ(a.value().sharding.events_per_shard.size(), 4u);
    for (std::size_t s = 0; s < 4; ++s)
      EXPECT_EQ(a.value().sharding.events_per_shard[s],
                b.value().sharding.events_per_shard[s])
          << topo::to_string(scheme) << " shard " << s;
    EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest)
        << topo::to_string(scheme);
    EXPECT_EQ(a.value().frames_sent, b.value().frames_sent)
        << topo::to_string(scheme);
    EXPECT_EQ(a.value().makespan, b.value().makespan)
        << topo::to_string(scheme);
    EXPECT_EQ(a.value().sharding.parallel_epochs,
              b.value().sharding.parallel_epochs)
        << topo::to_string(scheme);
    EXPECT_EQ(a.value().sharding.horizon_stalls,
              b.value().sharding.horizon_stalls)
        << topo::to_string(scheme);
    // The workload actually exercised the engine: some events ran.
    std::size_t total_events = 0;
    for (const std::size_t n : a.value().sharding.events_per_shard)
      total_events += n;
    EXPECT_GT(total_events, 0u) << topo::to_string(scheme);
  }
}

TEST(ShardEquivalenceTest, GreedyCutPartitionCutsTheWorkloadCut) {
  // The pool workload's flows live in disjoint 6-switch blocks, so a
  // workload-aware partition can place every block wholly on one shard:
  // greedy_cut must reach (near-)zero cut weight and zero cross-shard
  // updates where hash pays a heavy cut, and its results must still match
  // the hash run's digest (partitioning never changes WHAT is installed).
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(12, 24).value();
  ExecutorConfig config = fast_config(7);
  config.controller.max_in_flight = 12;
  config.controller.shards = 4;

  config.controller.partition = topo::PartitionScheme::kHash;
  const Result<MultiFlowExecutionResult> hash =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(hash.ok());

  config.controller.partition = topo::PartitionScheme::kGreedyCut;
  const Result<MultiFlowExecutionResult> greedy =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(greedy.ok());

  EXPECT_GT(hash.value().sharding.partition_cut_weight, 0u);
  EXPECT_LT(greedy.value().sharding.partition_cut_weight,
            hash.value().sharding.partition_cut_weight / 2);
  EXPECT_EQ(greedy.value().sharding.cross_shard_updates, 0u);
  EXPECT_EQ(greedy.value().final_state_digest,
            hash.value().final_state_digest);
  // All four shards own switches (the balance cap held).
  ASSERT_EQ(greedy.value().sharding.events_per_shard.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_GT(greedy.value().sharding.events_per_shard[s], 0u)
        << "shard " << s;
}

TEST(ShardEquivalenceTest, ParallelUnderChaosStaysSafeAndBitIdentical) {
  // The chaos overlay on the parallel engine: seeded random fault
  // schedules (crashes with and without state loss, control-link flaps,
  // frame blackholes) against conflict-aware admission on 4 hash-cut
  // shards, alternating wait-retry and rollback recovery. Rollback is the
  // sharp edge: a rolled-back update must never release a round for an
  // aborted or conflicting schedule. check_fault_trace holds the oracle to
  // zero consistency violations (outage loss is accounted separately), and
  // the parallel rerun must stay bit-identical to sequential even with
  // faults and recovery in the schedule. Failures print the schedule JSON
  // for sim_cli --faults replay.
#ifdef TSU_EQUIV_SLIM
  constexpr std::uint64_t kChaosSeeds = 10;
#else
  constexpr std::uint64_t kChaosSeeds = 40;
#endif
  constexpr std::size_t kFlows = 6;
  constexpr std::size_t kSwitches = 12;
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(kFlows, kSwitches).value();

  sim::ChaosOptions options;
  options.node_count = kSwitches;
  options.start_ms = 0.8;  // updates start at warmup = 1 ms
  options.horizon_ms = 6;
  options.crashes = 2;
  options.link_downs = 1;
  options.blackholes = 1;
  options.min_down_ms = 0.5;
  options.max_down_ms = 2;

  std::size_t recoveries = 0;
  for (std::uint64_t seed = 1; seed <= kChaosSeeds; ++seed) {
    ExecutorConfig config = fast_config(seed);
    config.interval = sim::microseconds(400);
    config.drain = sim::milliseconds(8);
    config.controller.admission = controller::AdmissionPolicy::kConflictAware;
    config.controller.max_in_flight = kFlows;
    config.controller.shards = 4;
    config.controller.partition = topo::PartitionScheme::kHash;
    config.controller.liveness_timeout = sim::milliseconds(2);
    config.controller.failure_response =
        seed % 2 == 0 ? controller::FailureResponse::kRollback
                      : controller::FailureResponse::kWait;
    config.faults = sim::FaultSchedule::random(seed, options);
    const std::string replay = json::write(config.faults.to_json());

    const Result<MultiFlowExecutionResult> seq =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(seq.ok()) << "seed " << seed << ": "
                          << seq.error().to_string() << "\nreplay: " << replay;
    const verify::TransientCheckReport report = verify::check_fault_trace(
        config.faults, seq.value().faults, seq.value().aggregate, kFlows,
        seq.value().flows.size());
    ASSERT_TRUE(report.ok) << "seed " << seed << ": " << report.to_string()
                           << "\nreplay: " << replay;
    recoveries += seq.value().faults.resyncs + seq.value().faults.rollbacks +
                  seq.value().faults.retries;

    config.controller.exec = sim::ExecMode::kParallel;
    config.controller.threads = 4;
    const Result<MultiFlowExecutionResult> par =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(par.ok()) << "seed " << seed << " (parallel): "
                          << par.error().to_string() << "\nreplay: " << replay;
    expect_parallel_bit_identical(seq.value(), par.value(), seed, 4);
  }
  // The overlay exercised the recovery machinery; a sweep where it never
  // fired would be vacuous.
  EXPECT_GT(recoveries, 0u);
}

TEST(ShardEquivalenceTest, CrossShardFlowLivenessSweep500Seeds) {
  // Flows spanning shard boundaries under tight per-shard capacity: 500
  // seeds, both admission policies and batch modes, shards 2..5.
  // run_engine fails ("simulation drained before all updates completed")
  // on any deadlock, so completion is the liveness proof.
  std::size_t cross_updates_seen = 0;
  for (std::uint64_t seed = 1; seed <= kLivenessSeeds; ++seed) {
    Rng rng(seed);
    const std::size_t flows = 4 + rng.index(7);           // 4..10
    const std::size_t switches = 12 + 6 * rng.index(3);   // 12, 18 or 24
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(flows, switches).value();

    ExecutorConfig config = fast_config(seed);
    config.with_traffic = false;
    config.drain = sim::milliseconds(1);
    config.controller.shards = 2 + rng.index(4);          // 2..5
    config.controller.partition = topo::PartitionScheme::kHash;
    config.controller.admission =
        rng.index(2) == 0 ? controller::AdmissionPolicy::kBlind
                          : controller::AdmissionPolicy::kConflictAware;
    // Tight capacity is the deadlock bait: cross-shard updates must
    // acquire a slot on EVERY participating shard.
    config.controller.max_in_flight = 1 + rng.index(3);
    config.controller.batch_mode = rng.index(2) == 0
                                       ? controller::BatchMode::kOff
                                       : controller::BatchMode::kAdaptive;
    config.switch_config.batch_replies = rng.index(2) == 1;
    // Half the sweep runs the parallel stepper: cross-shard liveness must
    // not depend on the execution mode either.
    if (rng.index(2) == 1) {
      config.controller.exec = sim::ExecMode::kParallel;
      config.controller.threads = 2 + rng.index(3);  // 2..4
    }

    const Result<MultiFlowExecutionResult> run =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(run.ok()) << "seed " << seed << " shards "
                          << config.controller.shards << ": "
                          << run.error().to_string();
    ASSERT_EQ(run.value().flows.size(), flows) << "seed " << seed;
    cross_updates_seen += run.value().sharding.cross_shard_updates;
  }
  EXPECT_GT(cross_updates_seen, 0u);
}

}  // namespace
}  // namespace tsu::core
