// End-to-end tests of multi-policy merged execution: several policies, one
// controller request with interleaved rounds, per-policy guarantees intact.
#include <gtest/gtest.h>

#include "tsu/core/executor.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::core {
namespace {

// Two waypointed policies sharing switches 3 and 5.
update::Instance policy_one() {
  return std::move(update::Instance::make({1, 2, 3, 4, 8, 5, 6, 12},
                                          {1, 7, 5, 3, 2, 9, 10, 11, 12},
                                          NodeId{3}))
      .value();
}

update::Instance policy_two() {
  return std::move(update::Instance::make({20, 3, 5, 21},
                                          {20, 22, 3, 5, 21}, NodeId{3}))
      .value();
}

ExecutorConfig jittery(std::uint64_t seed) {
  ExecutorConfig config;
  config.seed = seed;
  config.channel.latency =
      sim::LatencyModel::uniform(sim::microseconds(100), sim::milliseconds(6));
  config.switch_config.install_latency =
      sim::LatencyModel::lognormal(sim::milliseconds(1), 0.8);
  return config;
}

TEST(MergedExecutionTest, CompletesAndReportsPerPolicyTraffic) {
  const update::Instance a = policy_one();
  const update::Instance b = policy_two();
  const update::Schedule sa = plan(a, Algorithm::kWayUp).value().schedule;
  const update::Schedule sb = plan(b, Algorithm::kWayUp).value().schedule;
  const Result<MultiFlowExecutionResult> result =
      execute_multiflow({&a, &b}, {&sa, &sb}, jittery(1), {{0, 1}});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_EQ(result.value().flows.size(), 2u);
  EXPECT_GT(result.value().flows[0].traffic.total, 0u);
  EXPECT_GT(result.value().flows[1].traffic.total, 0u);
  EXPECT_GT(result.value().flows[0].update_ms(), 0.0);
}

TEST(MergedExecutionTest, PerPolicyWaypointGuaranteesSurviveMerging) {
  const update::Instance a = policy_one();
  const update::Instance b = policy_two();
  const update::Schedule sa = plan(a, Algorithm::kWayUp).value().schedule;
  const update::Schedule sb = plan(b, Algorithm::kWayUp).value().schedule;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Result<MultiFlowExecutionResult> result =
        execute_multiflow({&a, &b}, {&sa, &sb}, jittery(seed), {{0, 1}});
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().flows[0].traffic.bypassed, 0u) << "seed " << seed;
    EXPECT_EQ(result.value().flows[1].traffic.bypassed, 0u) << "seed " << seed;
  }
}

TEST(MergedExecutionTest, MergedBeatsSerialMakespan) {
  const update::Instance a = policy_one();
  const update::Instance b = policy_two();
  const update::Schedule sa = plan(a, Algorithm::kWayUp).value().schedule;
  const update::Schedule sb = plan(b, Algorithm::kWayUp).value().schedule;
  ExecutorConfig config;
  config.with_traffic = false;
  config.seed = 3;

  const Result<MultiFlowExecutionResult> serial =
      execute_multiflow({&a, &b}, {&sa, &sb}, config);
  ASSERT_TRUE(serial.ok());

  const Result<MultiFlowExecutionResult> merged =
      execute_multiflow({&a, &b}, {&sa, &sb}, config, {{0, 1}});
  ASSERT_TRUE(merged.ok());
  EXPECT_LT(merged.value().flows[0].update.duration(),
            serial.value().makespan);
}

TEST(MergedExecutionTest, FlowsRemainIsolatedInTables) {
  // After the merged update, both flows' final rules coexist on the shared
  // switches; a packet of flow A is never steered by flow B's rule. The
  // per-policy delivered counts in the drain window prove both paths work.
  const update::Instance a = policy_one();
  const update::Instance b = policy_two();
  const update::Schedule sa = plan(a, Algorithm::kPeacock).value().schedule;
  const update::Schedule sb = plan(b, Algorithm::kPeacock).value().schedule;
  const Result<MultiFlowExecutionResult> result =
      execute_multiflow({&a, &b}, {&sa, &sb}, jittery(5), {{0, 1}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().flows[0].traffic.looped, 0u);
  EXPECT_EQ(result.value().flows[1].traffic.looped, 0u);
  EXPECT_GT(result.value().flows[0].traffic.delivered, 0u);
  EXPECT_GT(result.value().flows[1].traffic.delivered, 0u);
}

TEST(MergedExecutionTest, RejectsEmptyInput) {
  EXPECT_FALSE(execute_multiflow({}, {}, ExecutorConfig{}, {{0}}).ok());
}

TEST(MixedExecutionTest, MergedRequestComposesWithIndependentRequests) {
  // One merged request (two policies sharing switches 3 and 5) plus two
  // rule-disjoint independent policies, all through one controller under
  // conflict-aware admission: the independents must overlap the merged
  // request in time, and every policy stays violation-free. Waypoint-free
  // variants of the shared-switch policies, so Peacock's loop- and
  // blackhole-free guarantee makes every monitor count zero.
  const update::Instance a =
      std::move(update::Instance::make({1, 2, 3, 4, 8, 5, 6, 12},
                                       {1, 7, 5, 3, 2, 9, 10, 11, 12}))
          .value();
  const update::Instance b =
      std::move(update::Instance::make({20, 3, 5, 21}, {20, 22, 3, 5, 21}))
          .value();
  std::vector<update::Instance> pool = topo::pool_workload(2, 12);
  // Shift the pool policies out of a/b's node range (a/b use ids < 23).
  std::vector<update::Instance> independents;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const NodeId base = static_cast<NodeId>(30 + i * 6);
    const graph::Path old_path{base, base + 1, base + 2, base + 3};
    const graph::Path new_path{base, base + 4, base + 5, base + 3};
    independents.push_back(
        std::move(update::Instance::make(old_path, new_path)).value());
  }
  const update::Schedule sa = plan(a, Algorithm::kPeacock).value().schedule;
  const update::Schedule sb = plan(b, Algorithm::kPeacock).value().schedule;
  const update::Schedule s0 = update::plan_peacock(independents[0]).value();
  const update::Schedule s1 = update::plan_peacock(independents[1]).value();

  ExecutorConfig config = jittery(11);
  config.controller.max_in_flight = 3;
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;

  const std::vector<const update::Instance*> instances{
      &a, &b, &independents[0], &independents[1]};
  const std::vector<const update::Schedule*> schedules{&sa, &sb, &s0, &s1};
  const Result<MultiFlowExecutionResult> run = execute_multiflow(
      instances, schedules, config, {{0, 1}, {2}, {3}});
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const MultiFlowExecutionResult& result = run.value();

  ASSERT_EQ(result.flows.size(), 4u);  // per policy
  for (const ExecutionResult& flow : result.flows) {
    EXPECT_GT(flow.traffic.total, 0u);
    EXPECT_EQ(flow.traffic.bypassed, 0u);
    EXPECT_EQ(flow.traffic.looped, 0u);
    EXPECT_EQ(flow.traffic.blackholed, 0u);
  }

  // Both members of the merged group report the merged request.
  const controller::UpdateMetrics& merged_update = result.flows[0].update;
  EXPECT_EQ(result.flows[1].update.started, merged_update.started);
  EXPECT_EQ(result.flows[1].update.finished, merged_update.finished);
  EXPECT_EQ(result.flows[1].update.flow_mods_sent,
            merged_update.flow_mods_sent);

  // No rule overlap between the merged request and the independents, so
  // all three requests ran concurrently.
  EXPECT_EQ(result.conflict_edges, 0u);
  EXPECT_EQ(result.max_in_flight_observed, 3u);
  for (std::size_t i = 2; i < result.flows.size(); ++i)
    EXPECT_LT(result.flows[i].update.started, merged_update.finished);
}

TEST(MixedExecutionTest, RejectsNonPartitionGroups) {
  const update::Instance a = policy_one();
  const update::Instance b = policy_two();
  const update::Schedule sa = plan(a, Algorithm::kWayUp).value().schedule;
  const update::Schedule sb = plan(b, Algorithm::kWayUp).value().schedule;
  const std::vector<const update::Instance*> instances{&a, &b};
  const std::vector<const update::Schedule*> schedules{&sa, &sb};
  EXPECT_FALSE(execute_multiflow(instances, schedules, {}, {{0}}).ok());
  EXPECT_FALSE(
      execute_multiflow(instances, schedules, {}, {{0, 0}, {1}}).ok());
  EXPECT_FALSE(
      execute_multiflow(instances, schedules, {}, {{0, 2}, {1}}).ok());
  EXPECT_FALSE(execute_multiflow(instances, schedules, {}, {{0}, {}}).ok());
  // No groups at all means one request per policy.
  EXPECT_TRUE(execute_multiflow(instances, schedules, {}, {}).ok());
}

TEST(MergedExecutionTest, ManyRandomPoliciesMerge) {
  Rng rng(8800);
  topo::RandomInstanceOptions options;
  options.with_waypoint = false;
  std::vector<update::Instance> instances;
  std::vector<update::Schedule> schedules;
  for (int i = 0; i < 5; ++i) {
    update::Instance inst = topo::random_instance(rng, options);
    // Shift each policy into its own id range to bound accidental overlap
    // (ids stay small enough for the dense switch array).
    Result<PlanOutcome> planned = plan(inst, Algorithm::kPeacock);
    ASSERT_TRUE(planned.ok());
    instances.push_back(std::move(inst));
    schedules.push_back(std::move(planned.value().schedule));
  }
  std::vector<const update::Instance*> instance_ptrs;
  std::vector<const update::Schedule*> schedule_ptrs;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    instance_ptrs.push_back(&instances[i]);
    schedule_ptrs.push_back(&schedules[i]);
  }
  ExecutorConfig config;
  config.with_traffic = false;
  const Result<MultiFlowExecutionResult> result = execute_multiflow(
      instance_ptrs, schedule_ptrs, config, {{0, 1, 2, 3, 4}});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_GT(result.value().flows[0].update.rounds.size(), 0u);
}

}  // namespace
}  // namespace tsu::core
