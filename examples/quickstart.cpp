// Quickstart: plan a transiently secure update, verify it, run it.
//
//   $ ./build/examples/quickstart
//
// Walks the three layers of the public API:
//   1. update::Instance  - describe the routing-policy change,
//   2. core::plan        - pick a scheduler, get (and model-check) rounds,
//   3. core::execute_multiflow - run it against the simulated SDN with
//                                traffic.
#include <cstdio>

#include "tsu/core/executor.hpp"
#include "tsu/core/planner.hpp"
#include "tsu/update/instance.hpp"

int main() {
  using namespace tsu;

  // 1. The policy change: move the flow from the top route to the bottom
  //    route; every packet must keep traversing the firewall at switch 3.
  //
  //        old:  1 -> 2 -> 3 -> 4 -> 6
  //        new:  1 -> 5 -> 3 -> 7 -> 6      (waypoint: 3)
  Result<update::Instance> instance =
      update::Instance::make({1, 2, 3, 4, 6}, {1, 5, 3, 7, 6}, NodeId{3});
  if (!instance.ok()) {
    std::fprintf(stderr, "bad instance: %s\n",
                 instance.error().to_string().c_str());
    return 1;
  }

  // 2. Plan with WayUp and let the model checker prove waypoint
  //    enforcement over every transient state of every round.
  core::PlannerOptions options;
  options.verify = true;
  Result<core::PlanOutcome> planned =
      core::plan(instance.value(), core::Algorithm::kWayUp, options);
  if (!planned.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 planned.error().to_string().c_str());
    return 1;
  }
  std::printf("schedule : %s\n", planned.value().schedule.to_string().c_str());
  std::printf("verified : %s\n", planned.value().report->to_string().c_str());

  // 3. Execute against the simulated asynchronous control plane while a
  //    host keeps sending packets through the network.
  core::ExecutorConfig config;
  config.seed = 42;
  Result<core::MultiFlowExecutionResult> run = core::execute_multiflow(
      {&instance.value()}, {&planned.value().schedule}, config);
  if (!run.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 run.error().to_string().c_str());
    return 1;
  }
  const core::ExecutionResult& result = run.value().flows.front();
  std::printf("update   : %.2f ms over %zu rounds\n", result.update_ms(),
              result.update.rounds.size());
  std::printf("traffic  : %s\n", result.traffic.to_string().c_str());
  std::printf("security : %zu packets bypassed the firewall\n",
              result.traffic.bypassed);
  return result.traffic.bypassed == 0 ? 0 : 1;
}
