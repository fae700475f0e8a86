// E1 + E6: the paper's Figure 1 demo scenario.
//
// Reproduces the demo run: the 12-switch topology, old route
// <1,2,3,4,8,5,6,12>, new route <1,7,5,3,2,9,10,11,12>, waypoint 3
// (firewall/IDS). For every scheduler we print the round structure, the
// model-checker verdict for the full transient-state space, and the
// observed data-plane behaviour across 100 asynchronous runs. The paper's
// claim: the multi-round (WayUp) update is transiently secure - no packet
// ever slips past switch 3 - while the single-round update is not.
//
// The E6 section prints the per-millisecond packet-outcome timeline of one
// run each for OneShot and WayUp, the textual equivalent of the demo video.
#include "bench_common.hpp"

#include "tsu/topo/instances.hpp"
#include "tsu/verify/checker.hpp"

namespace tsu {
namespace {

void run() {
  const topo::Fig1 fig = topo::fig1();
  bench::print_header("E1", "Figure 1 scenario: transiently secure updates",
                      "Figure 1 + section 2 claims (WPE via WayUp, weak "
                      "loop freedom via Peacock)");

  std::printf("topology: %s\n", fig.topology.to_string().c_str());
  std::printf("old route: %s\n",
              graph::to_string(fig.instance.old_path()).c_str());
  std::printf("new route: %s\n",
              graph::to_string(fig.instance.new_path()).c_str());
  std::printf("waypoint : switch %u\n\n", *fig.instance.waypoint());

  stats::Table table({"algorithm", "rounds", "schedule", "checker(WPE)",
                      "checker(WLF)", "bypassed pkts", "looped pkts",
                      "dropped pkts", "runs w/ bypass", "update ms (mean)"});

  const std::vector<std::uint64_t> seeds = bench::seed_range(100);
  for (const core::Algorithm algorithm :
       {core::Algorithm::kOneShot, core::Algorithm::kTwoPhase,
        core::Algorithm::kWayUp, core::Algorithm::kPeacock,
        core::Algorithm::kSlfGreedy}) {
    const Result<core::PlanOutcome> planned = core::plan(fig.instance, algorithm);
    if (!planned.ok()) continue;
    const update::Schedule& schedule = planned.value().schedule;

    const verify::CheckReport wpe =
        verify::check_schedule(fig.instance, schedule, update::kWaypoint);
    const verify::CheckReport wlf = verify::check_schedule(
        fig.instance, schedule, update::kLoopFree | update::kBlackholeFree);

    const Result<core::SeedSweep> sweep = core::sweep_seeds(
        fig.instance, schedule, bench::harsh_config(1), seeds);
    if (!sweep.ok()) continue;
    const core::SeedSweep& s = sweep.value();

    table.add_row({core::to_string(algorithm),
                   std::to_string(schedule.round_count()),
                   schedule.to_string(),
                   wpe.ok ? "OK" : "VIOLATED",
                   wlf.ok ? "OK" : "VIOLATED",
                   bench::fmt(s.bypassed.mean() *
                              static_cast<double>(s.runs), 0),
                   bench::fmt(s.looped.mean() * static_cast<double>(s.runs), 0),
                   bench::fmt(s.blackholed.mean() *
                              static_cast<double>(s.runs), 0),
                   std::to_string(s.runs_with_bypass) + "/" +
                       std::to_string(s.runs),
                   bench::fmt(s.update_ms.mean())});
  }
  bench::print_table(table);

  bench::print_header("E6", "packet-outcome timeline during the update",
                      "demo narrative / video (packets during the update)");
  for (const core::Algorithm algorithm :
       {core::Algorithm::kOneShot, core::Algorithm::kWayUp}) {
    const Result<core::PlanOutcome> planned =
        core::plan(fig.instance, algorithm);
    if (!planned.ok()) continue;
    // Seed 7 shows a bypass for OneShot under the harsh regime.
    const Result<core::MultiFlowExecutionResult> run =
        core::execute_multiflow({&fig.instance}, {&planned.value().schedule},
                                bench::harsh_config(7));
    if (!run.ok()) continue;
    const core::ExecutionResult& result = run.value().flows.front();
    std::printf("--- %s (seed 7) ---\n", core::to_string(algorithm));
    std::printf("update window: %s\n",
                format_duration_ns(result.update.duration()).c_str());
    for (std::size_t i = 0; i < result.timeline.size(); ++i) {
      const auto& bucket = result.timeline[i];
      std::printf("[%3zu ms] delivered=%3zu", i, bucket.delivered);
      if (bucket.bypassed != 0)
        std::printf("  BYPASSED-WAYPOINT=%zu", bucket.bypassed);
      if (bucket.looped != 0) std::printf("  looped=%zu", bucket.looped);
      if (bucket.blackholed != 0)
        std::printf("  dropped=%zu", bucket.blackholed);
      std::printf("\n");
    }
    std::printf("traffic: %s\n\n", result.traffic.to_string().c_str());
  }
}

}  // namespace
}  // namespace tsu

int main() {
  tsu::run();
  return 0;
}
