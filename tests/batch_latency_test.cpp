// Latency regression suite for the adaptive outbox: the hold window is a
// real bound (no FlowMod sits in an outbox longer than batch_window past
// readiness), the outbox collapses to an immediate flush when the control
// plane is idle, barrier rounds always flush (500-seed liveness sweep
// across random modes, windows, budgets and admission policies - no
// deadlock against the dependency DAG), and byte-budget flushes cancel
// armed timers without growing the event-queue heap past its compaction
// bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::core {
namespace {

ExecutorConfig constant_config(std::uint64_t seed) {
  ExecutorConfig config;
  config.seed = seed;
  config.channel.latency = sim::LatencyModel::constant(sim::microseconds(200));
  config.switch_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(100));
  config.with_traffic = false;
  config.warmup = sim::milliseconds(1);
  config.drain = sim::milliseconds(1);
  return config;
}

TEST(BatchLatencyTest, HoldNeverExceedsWindowUnderLoad) {
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(48, 6).value();
  ExecutorConfig config = constant_config(3);
  config.controller.max_in_flight = 48;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.batch_window = sim::microseconds(300);
  const Result<MultiFlowExecutionResult> run =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  // Timers really fired, something really got held...
  EXPECT_GT(run.value().batching.timer_flushes, 0u);
  EXPECT_GT(run.value().batching.max_hold, 0u);
  // ...and never longer than the window.
  EXPECT_LE(run.value().batching.max_hold, config.controller.batch_window);
}

TEST(BatchLatencyTest, AdaptiveCollapsesToImmediateFlushWhenIdle) {
  // One flow, nothing queued behind it: queue pressure never exceeds 1, so
  // the adaptive window is zero at every round boundary - the run must
  // match the unbatched run's timing exactly, with zero hold.
  const topo::PlannedPoolWorkload w = topo::planned_pool_workload(1, 6).value();
  ExecutorConfig config = constant_config(9);
  config.controller.batch_mode = controller::BatchMode::kOff;
  const Result<MultiFlowExecutionResult> off =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(off.ok());

  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.batch_window = sim::milliseconds(5);  // would be visible
  const Result<MultiFlowExecutionResult> adaptive =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(adaptive.ok());

  EXPECT_EQ(adaptive.value().batching.max_hold, 0u);
  EXPECT_EQ(adaptive.value().flows[0].update.duration(),
            off.value().flows[0].update.duration());
  EXPECT_EQ(adaptive.value().final_state_digest,
            off.value().final_state_digest);
}

TEST(BatchLatencyTest, BudgetFlushesCancelTimersWithoutLosingMessages) {
  // A tiny byte budget force-flushes nearly every fill ahead of its timer:
  // heavy cancel churn against the lazy-cancel event queue, with the run
  // still completing and still state-identical to the unbatched run.
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(32, 6).value();
  ExecutorConfig config = constant_config(11);
  config.controller.max_in_flight = 32;

  config.controller.batch_mode = controller::BatchMode::kOff;
  const Result<MultiFlowExecutionResult> off =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(off.ok());

  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.batch_window = sim::milliseconds(1);
  config.controller.batch_bytes = 100;  // ~2-3 FlowMods
  const Result<MultiFlowExecutionResult> tiny =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(tiny.ok()) << tiny.error().to_string();
  EXPECT_GT(tiny.value().batching.budget_flushes, 0u);
  EXPECT_GT(tiny.value().batching.flush_timers_cancelled, 0u);
  EXPECT_EQ(tiny.value().final_state_digest, off.value().final_state_digest);
  EXPECT_LE(tiny.value().batching.max_hold, config.controller.batch_window);
}

TEST(BatchLatencyTest, BarrierRoundsAlwaysFlushLiveness500Seeds) {
  // Random tiny workloads under random flush policies, windows (including
  // zero), byte budgets, admission policies and concurrency limits: every
  // run must complete every update (run_engine fails the run if the
  // simulation drains first, which is exactly what an outbox deadlock -
  // a barrier stuck behind a never-firing flush - would look like).
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    const std::size_t flows = 1 + rng.index(5);
    const std::size_t switches = 6 * (1 + rng.index(2));
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(flows, switches).value();

    ExecutorConfig config = constant_config(seed);
    config.controller.batch_mode = rng.index(2) == 0
                                       ? controller::BatchMode::kOff
                                       : controller::BatchMode::kAdaptive;
    config.controller.batch_window = sim::microseconds(rng.index(2000));
    config.controller.batch_bytes = 64 + rng.index(2048);
    config.controller.admission =
        rng.index(2) == 0 ? controller::AdmissionPolicy::kBlind
                          : controller::AdmissionPolicy::kConflictAware;
    config.controller.max_in_flight = 1 + rng.index(flows);
    config.interval = rng.index(2) == 0 ? 0 : sim::microseconds(500);

    const Result<MultiFlowExecutionResult> run =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": "
                          << run.error().to_string();
    ASSERT_EQ(run.value().flows.size(), flows) << "seed " << seed;
    EXPECT_LE(run.value().batching.max_hold, config.controller.batch_window)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace tsu::core
