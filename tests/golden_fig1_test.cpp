// Golden tests pinned to the paper: the Figure 1 scenario admits no
// transiently secure schedule (plan_secure must report exhaustion), and the
// multi-flow executor is bit-for-bit deterministic under a fixed seed.
#include <gtest/gtest.h>

#include <vector>

#include "multiflow_workload.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"

namespace tsu {
namespace {

// The paper's own demo scenario: no schedule keeps waypoint enforcement,
// relaxed loop freedom and blackhole freedom simultaneously, which is the
// point Figure 1 makes. The exact search must prove that, not time out.
TEST(GoldenFig1Test, SecurePlannerReportsInfeasibility) {
  const topo::Fig1 fig = topo::fig1();
  const Result<update::Schedule> planned = update::plan_secure(fig.instance);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.error().code, Errc::kExhausted)
      << planned.error().to_string();
}

// WayUp, by contrast, schedules Figure 1 (waypoint enforcement only).
TEST(GoldenFig1Test, WayUpSchedulesFig1) {
  const topo::Fig1 fig = topo::fig1();
  const Result<update::Schedule> planned = update::plan_wayup(fig.instance);
  ASSERT_TRUE(planned.ok()) << planned.error().to_string();
  EXPECT_LE(planned.value().round_count(), 4u);
}

Result<core::MultiFlowExecutionResult> run_once(std::uint64_t seed) {
  const testutil::Workload w = testutil::disjoint_workload(6);
  core::ExecutorConfig config;
  config.seed = seed;
  config.controller.max_in_flight = 6;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  return core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
}

TEST(GoldenDeterminismTest, SameSeedSameMultiFlowMetrics) {
  const auto a = run_once(42);
  const auto b = run_once(42);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
  EXPECT_EQ(a.value().bytes_sent, b.value().bytes_sent);
  EXPECT_EQ(a.value().messages_sent, b.value().messages_sent);
  EXPECT_EQ(a.value().makespan, b.value().makespan);
  EXPECT_EQ(a.value().aggregate.total, b.value().aggregate.total);
  ASSERT_EQ(a.value().flows.size(), b.value().flows.size());
  for (std::size_t i = 0; i < a.value().flows.size(); ++i) {
    const core::ExecutionResult& ra = a.value().flows[i];
    const core::ExecutionResult& rb = b.value().flows[i];
    EXPECT_EQ(ra.update.started, rb.update.started) << "flow " << i;
    EXPECT_EQ(ra.update.finished, rb.update.finished) << "flow " << i;
    EXPECT_EQ(ra.update.flow_mods_sent, rb.update.flow_mods_sent);
    EXPECT_EQ(ra.update.barriers_sent, rb.update.barriers_sent);
    ASSERT_EQ(ra.update.rounds.size(), rb.update.rounds.size());
    for (std::size_t r = 0; r < ra.update.rounds.size(); ++r) {
      EXPECT_EQ(ra.update.rounds[r].started, rb.update.rounds[r].started);
      EXPECT_EQ(ra.update.rounds[r].finished, rb.update.rounds[r].finished);
    }
    EXPECT_EQ(ra.traffic.total, rb.traffic.total) << "flow " << i;
    EXPECT_EQ(ra.traffic.delivered, rb.traffic.delivered);
    EXPECT_EQ(ra.packets_injected, rb.packets_injected);
  }
  // And a different seed genuinely changes the run.
  const auto c = run_once(43);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().makespan, c.value().makespan);
}

}  // namespace
}  // namespace tsu
