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
// frames, bytes, the final-state digest, the packet oracle's verdict counts
// and the per-shard event counts. The constant was recorded before the
// event queue gained its constant-delay lanes; any change to the order in
// which the engine fires events changes the digest.
#include <gtest/gtest.h>

#include <cstdint>

#include "tsu/core/executor.hpp"
#include "tsu/core/service.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/topo/instances.hpp"

namespace tsu::core {
namespace {

constexpr std::uint64_t kExpectedDigest = 0x0633bd99aeba40a7ULL;

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
  d.mix(result.control_bytes);
  d.mix(result.messages_sent);
  d.mix(result.final_state_digest);
  d.mix(result.makespan);
  d.mix(result.batching.timer_flushes);
  d.mix(result.batching.flush_timers_cancelled);
  d.mix(result.sharding.events_per_shard.size());
  for (const std::size_t events : result.sharding.events_per_shard)
    d.mix(events);
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
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(64, 24).value();

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ExecutorConfig config = pool_config(seed);
    const Result<MultiFlowExecutionResult> single =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(single.ok()) << "seed " << seed << ": "
                             << single.error().to_string();
    mix_multiflow(d, single.value());

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
    d.mix(result.faults.frames_lost);
    d.mix(result.faults.timeouts);
    d.mix(result.faults.resyncs);
    d.mix(result.faults.rollbacks);
    d.mix(result.faults.retries);
  }

  EXPECT_EQ(d.value(), kExpectedDigest) << "digest 0x" << std::hex << d.value();
}

}  // namespace
}  // namespace tsu::core
