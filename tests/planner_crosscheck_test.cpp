// Randomized cross-check over every planner: on ~500 seeded random
// instances, each planner's rounds must exactly partition
// Instance::touched() (validate_schedule) and every round must pass the
// safety oracle for the property mask the algorithm claims to guarantee.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/oracle.hpp"
#include "tsu/update/schedule.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::update {
namespace {

struct PlannerCase {
  const char* name;
  // Property mask the algorithm claims for every transient state (0 for
  // the baselines, which guarantee nothing beyond a valid partition).
  std::uint32_t claimed;
  std::function<Result<Schedule>(const Instance&)> plan;
};

std::vector<PlannerCase> planner_cases() {
  return {
      {"oneshot", 0, [](const Instance& i) { return plan_oneshot(i); }},
      {"twophase", 0, [](const Instance& i) { return plan_twophase(i); }},
      {"wayup", kWayUpGuarantee,
       [](const Instance& i) { return plan_wayup(i); }},
      {"peacock", kPeacockGuarantee,
       [](const Instance& i) { return plan_peacock(i); }},
      {"slf_greedy", kSlfGuarantee,
       [](const Instance& i) { return plan_slf_greedy(i); }},
      {"secure", kTransientlySecure,
       [](const Instance& i) { return plan_secure(i); }},
  };
}

TEST(PlannerCrossCheckTest, AllPlannersPartitionAndSatisfyClaimedMask) {
  constexpr std::size_t kInstances = 500;
  Rng rng(0xc405cec);
  topo::RandomInstanceOptions options;  // defaults include a waypoint
  std::vector<PlannerCase> cases = planner_cases();
  std::vector<std::size_t> successes(cases.size(), 0);

  for (std::size_t n = 0; n < kInstances; ++n) {
    const Instance inst = topo::random_instance(rng, options);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const PlannerCase& planner = cases[c];
      const Result<Schedule> planned = planner.plan(inst);
      // Planners may legitimately decline (infeasible instance, search
      // limits); what they return must still be correct.
      if (!planned.ok()) continue;
      ++successes[c];
      const Schedule& schedule = planned.value();
      const Status valid = validate_schedule(inst, schedule);
      EXPECT_TRUE(valid.ok())
          << planner.name << " on instance " << n << ": "
          << valid.error().to_string() << "\n" << inst.to_string();
      if (planner.claimed == 0) continue;
      for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
        const StateMask applied = state_after_rounds(inst, schedule, r);
        EXPECT_TRUE(round_safe(inst, applied, schedule.rounds[r],
                               planner.claimed))
            << planner.name << " round " << r << " unsafe on instance " << n
            << "\n" << inst.to_string() << "\n" << schedule.to_string();
      }
    }
  }

  // The sweep must actually have exercised every planner.
  for (std::size_t c = 0; c < cases.size(); ++c)
    EXPECT_GT(successes[c], 0u) << cases[c].name << " never succeeded";
  // The unconditional baseline plans every instance.
  EXPECT_EQ(successes[0], kInstances);
}

TEST(PlannerCrossCheckTest, NoWaypointFamilyAlsoHolds) {
  constexpr std::size_t kInstances = 200;
  Rng rng(0xbead);
  topo::RandomInstanceOptions options;
  options.with_waypoint = false;
  std::size_t peacock_ok = 0;
  for (std::size_t n = 0; n < kInstances; ++n) {
    const Instance inst = topo::random_instance(rng, options);
    const Result<Schedule> planned = plan_peacock(inst);
    if (!planned.ok()) continue;
    ++peacock_ok;
    EXPECT_TRUE(validate_schedule(inst, planned.value()).ok());
    for (std::size_t r = 0; r < planned.value().rounds.size(); ++r) {
      const StateMask applied = state_after_rounds(inst, planned.value(), r);
      EXPECT_TRUE(round_safe(inst, applied, planned.value().rounds[r],
                             kPeacockGuarantee))
          << "peacock round " << r << " unsafe on instance " << n;
    }
  }
  EXPECT_GT(peacock_ok, kInstances / 2);
}

TEST(PlannerCrossCheckTest, ConflictAwareMatchesSerializedOnOverlaps) {
  // Execution-level cross-check on overlapping-footprint workloads: flows
  // sharing a small switch pool (switch-level overlap, rule-level
  // disjoint), run under jittery latencies. The conflict-aware concurrent
  // run must report exactly the per-flow violation counts of the fully
  // serialized run - here zero on both sides, since every schedule is a
  // consistent Peacock plan; any rule race would break the equality.
  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kFlows = 12;
  constexpr std::size_t kPool = 24;  // 4 blocks: 3 flows share each block
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(kFlows, kPool).value();

    core::ExecutorConfig config;
    config.seed = 1000 + round;
    config.channel.latency = sim::LatencyModel::uniform(
        sim::microseconds(100), sim::milliseconds(4));
    config.switch_config.install_latency =
        sim::LatencyModel::lognormal(sim::milliseconds(1), 0.8);

    const Result<core::MultiFlowExecutionResult> serialized =
        core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    core::ExecutorConfig concurrent_config = config;
    concurrent_config.controller.max_in_flight = kFlows;
    concurrent_config.controller.admission =
        controller::AdmissionPolicy::kConflictAware;
    const Result<core::MultiFlowExecutionResult> concurrent =
        core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs,
                                concurrent_config);
    ASSERT_TRUE(serialized.ok()) << serialized.error().to_string();
    ASSERT_TRUE(concurrent.ok()) << concurrent.error().to_string();

    ASSERT_EQ(concurrent.value().flows.size(), kFlows);
    for (std::size_t i = 0; i < kFlows; ++i) {
      const dataplane::MonitorReport& s =
          serialized.value().flows[i].traffic;
      const dataplane::MonitorReport& c = concurrent.value().flows[i].traffic;
      EXPECT_GT(c.total, 0u) << "round " << round << " flow " << i;
      EXPECT_EQ(c.bypassed, s.bypassed) << "round " << round << " flow " << i;
      EXPECT_EQ(c.looped, s.looped) << "round " << round << " flow " << i;
      EXPECT_EQ(c.blackholed, s.blackholed)
          << "round " << round << " flow " << i;
    }
    // Rule-level tracking found no conflicts, so the concurrent run really
    // overlapped the updates it was allowed to overlap.
    EXPECT_EQ(concurrent.value().conflict_edges, 0u);
    EXPECT_GT(concurrent.value().max_in_flight_observed, 1u);
  }
}

}  // namespace
}  // namespace tsu::update
