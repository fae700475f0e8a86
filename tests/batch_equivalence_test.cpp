// Randomized batched-vs-unbatched equivalence: whatever the outbox flush
// policy (off | adaptive), a run must install exactly the same final
// forwarding state, complete every update, and report zero safety-oracle
// violations - batching may only change frame packing and timing, never
// WHAT gets installed or the transient guarantees. 100 seeds x 2 batch
// modes = 200 executions over randomized shared-pool workloads, admission
// policies, concurrency limits, hold windows and byte budgets.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::core {
namespace {

constexpr controller::BatchMode kAllModes[] = {
    controller::BatchMode::kOff, controller::BatchMode::kAdaptive};

// Fast constant-latency control plane with sparse per-flow traffic: quick
// enough for 200 runs under sanitizers, busy enough that the consistency
// monitor sees real packets on every flow.
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

TEST(BatchEquivalenceTest, EveryBatchModeMatchesUnbatchedAcross100Seeds) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const std::size_t flows = 3 + rng.index(6);            // 3..8
    const std::size_t switches = 6 * (1 + rng.index(2));   // 6 or 12: shared
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(flows, switches).value();

    ExecutorConfig config = fast_config(seed);
    config.controller.admission =
        rng.index(2) == 0 ? controller::AdmissionPolicy::kBlind
                          : controller::AdmissionPolicy::kConflictAware;
    config.controller.max_in_flight = 1 + rng.index(flows);
    config.controller.batch_window =
        sim::microseconds(50 + rng.index(950));            // 50us..1ms
    config.controller.batch_bytes = 200 + rng.index(3800); // forces budget
                                                           // flushes sometimes

    std::optional<MultiFlowExecutionResult> baseline;  // batch_mode = off
    for (const controller::BatchMode mode : kAllModes) {
      config.controller.batch_mode = mode;
      const Result<MultiFlowExecutionResult> run =
          execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
      ASSERT_TRUE(run.ok()) << "seed " << seed << " mode "
                            << controller::to_string(mode) << ": "
                            << run.error().to_string();
      const MultiFlowExecutionResult& result = run.value();
      ASSERT_EQ(result.flows.size(), flows);

      // Safety oracle: zero transient violations under every flush policy.
      EXPECT_GT(result.aggregate.total, 0u) << "seed " << seed;
      EXPECT_EQ(result.aggregate.bypassed, 0u)
          << "seed " << seed << " mode " << controller::to_string(mode);
      EXPECT_EQ(result.aggregate.looped, 0u)
          << "seed " << seed << " mode " << controller::to_string(mode);
      EXPECT_EQ(result.aggregate.blackholed, 0u)
          << "seed " << seed << " mode " << controller::to_string(mode);

      // The hold window really is a bound, whatever this seed drew.
      EXPECT_LE(result.batching.max_hold, config.controller.batch_window)
          << "seed " << seed << " mode " << controller::to_string(mode);

      if (mode == controller::BatchMode::kOff) {
        EXPECT_EQ(result.batching.batches_sent, 0u) << "seed " << seed;
        baseline = result;
        continue;
      }

      // Identical final forwarding state, flow by flow and rule by rule.
      ASSERT_TRUE(baseline.has_value());
      EXPECT_EQ(result.final_state_digest, baseline->final_state_digest)
          << "seed " << seed << " mode " << controller::to_string(mode);
      // Per-flow violation counts match the unbatched run...
      for (std::size_t i = 0; i < flows; ++i) {
        const dataplane::MonitorReport& got = result.flows[i].traffic;
        const dataplane::MonitorReport& want = baseline->flows[i].traffic;
        ASSERT_EQ(got.bypassed, want.bypassed) << "seed " << seed << " flow " << i;
        ASSERT_EQ(got.looped, want.looped) << "seed " << seed << " flow " << i;
        ASSERT_EQ(got.blackholed, want.blackholed)
            << "seed " << seed << " flow " << i;
        // ...and so does the logical message count: batching repacks
        // frames, it never adds or drops FlowMods.
        EXPECT_EQ(result.flows[i].update.flow_mods_sent,
                  baseline->flows[i].update.flow_mods_sent)
            << "seed " << seed << " flow " << i;
      }
      // Coalescing can only remove frames.
      EXPECT_LE(result.frames_sent, baseline->frames_sent)
          << "seed " << seed << " mode " << controller::to_string(mode);
    }
  }
}

TEST(BatchEquivalenceTest, AdaptiveOutboxCutsFramesOnSharedPool) {
  // 64 flows over 12 shared switches, all in flight at once: the adaptive
  // outbox must pack messages into markedly fewer frames than the
  // unbatched run.
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(64, 12).value();
  ExecutorConfig config = fast_config(7);
  config.controller.max_in_flight = 64;
  config.controller.batch_window = sim::microseconds(300);

  config.controller.batch_mode = controller::BatchMode::kOff;
  const Result<MultiFlowExecutionResult> off =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(off.ok()) << off.error().to_string();
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  const Result<MultiFlowExecutionResult> adaptive =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(adaptive.ok()) << adaptive.error().to_string();

  const MultiFlowExecutionResult& result = adaptive.value();
  EXPECT_EQ(result.final_state_digest, off.value().final_state_digest);
  // The acceptance bar: >= 30% fewer control frames than unbatched.
  EXPECT_LE(result.frames_sent * 10, off.value().frames_sent * 7)
      << "adaptive sent " << result.frames_sent << " frames vs "
      << off.value().frames_sent;
  EXPECT_GT(result.batching.batches_sent, 0u);
  EXPECT_GT(result.batching.messages_coalesced, 0u);
}

TEST(BatchEquivalenceTest, RunsAreDeterministicPerModeAndSeed) {
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(8, 6).value();
  for (const controller::BatchMode mode : kAllModes) {
    ExecutorConfig config = fast_config(42);
    config.controller.max_in_flight = 8;
    config.controller.batch_mode = mode;
    const Result<MultiFlowExecutionResult> a =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    const Result<MultiFlowExecutionResult> b =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest);
    EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
    EXPECT_EQ(a.value().makespan, b.value().makespan);
    EXPECT_EQ(a.value().batching.batches_sent,
              b.value().batching.batches_sent);
  }
}

}  // namespace
}  // namespace tsu::core
