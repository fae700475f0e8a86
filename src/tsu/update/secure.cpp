// plan_secure: jointly waypoint-enforcing AND relaxed-loop-free schedules.
//
// The demo runs WayUp (WPE, tolerates transient loops) and Peacock (WLF,
// tolerates transient bypasses) as separate algorithms; its reference [3]
// (Ludwig et al., SIGMETRICS'16, "Transiently secure network updates")
// studies the combination and shows it cannot always be satisfied - there
// are instances where *no* round schedule is simultaneously WPE and
// loop-free. This scheduler is the constructive side of that story:
//
//   1. install round for new-only rules (always jointly safe),
//   2. greedy rounds over the remaining nodes, admitting a node only if
//      the grown round passes the full WPE+WLF+BH oracle,
//   3. if the greedy stalls, an exhaustive search over round choices
//      (small instances) decides feasibility exactly; instances that are
//      genuinely infeasible - including the paper's own Figure 1 scenario -
//      are reported as kExhausted, reproducing the impossibility.
//
// bench_secure_feasibility (E10) measures how often random instances admit
// a jointly secure schedule and what it costs in rounds.
#include "tsu/update/schedulers.hpp"

#include <algorithm>

namespace tsu::update {

Result<Schedule> plan_secure(const Instance& inst,
                             const SecureOptions& options) {
  if (!inst.has_waypoint())
    return make_error(Errc::kFailedPrecondition,
                      "plan_secure requires a waypoint");
  const std::uint32_t property = kTransientlySecure;

  Schedule schedule;
  schedule.algorithm = "secure";

  std::vector<NodeId> pending = inst.touched();
  StateMask applied = empty_state(inst);

  // Install round: new-only nodes are unreachable until an old-path rule
  // flips, so they can never bypass the waypoint, loop, or blackhole.
  Round installs;
  for (const NodeId v : pending)
    if (inst.role(v) == NodeRole::kNewOnly) installs.push_back(v);
  if (!installs.empty()) {
    for (const NodeId v : installs) {
      applied[v] = true;
      pending.erase(std::find(pending.begin(), pending.end(), v));
    }
    schedule.rounds.push_back(std::move(installs));
  }

  // Candidate order: WayUp's phases are a good heuristic for the joint
  // property too - nodes behind the waypoint first, then the prefix, then Y.
  const NodeId w = *inst.waypoint();
  const std::size_t w_old = *inst.old_pos(w);
  const bool y_empty = inst.set_y().empty();
  const auto phase = [&](NodeId v) -> int {
    if (v == w) return 1;
    const auto pos_old = inst.old_pos(v);
    if (!pos_old.has_value()) return 0;
    return *pos_old > w_old ? 0 : (y_empty ? 1 : 2);
  };

  while (!pending.empty()) {
    std::vector<NodeId> candidates = pending;
    std::sort(candidates.begin(), candidates.end(), [&](NodeId a, NodeId b) {
      const int pa = phase(a);
      const int pb = phase(b);
      if (pa != pb) return pa < pb;
      return a < b;
    });

    Round round;
    for (const NodeId u : candidates) {
      round.push_back(u);
      if (!round_safe(inst, applied, round, property, options.base.oracle))
        round.pop_back();
    }

    if (round.empty()) {
      if (!options.search_fallback ||
          pending.size() > options.search_node_limit)
        return make_error(Errc::kExhausted,
                          "no jointly WPE+loop-free round exists from the "
                          "current state (instance may be infeasible)");
      Result<std::vector<Round>> rest =
          search_rounds(inst, applied, pending, property,
                        /*max_rounds=*/pending.size(), options.base.oracle);
      if (rest.ok()) {
        for (Round& r : rest.value()) schedule.rounds.push_back(std::move(r));
        pending.clear();
        break;
      }
      // The greedy prefix may itself have painted us into the corner;
      // decide feasibility exactly by searching from scratch.
      if (inst.touched().size() <= options.search_node_limit) {
        Result<std::vector<Round>> from_scratch = search_rounds(
            inst, empty_state(inst), inst.touched(), property,
            /*max_rounds=*/inst.touched().size(), options.base.oracle);
        if (from_scratch.ok()) {
          schedule.rounds = std::move(from_scratch).value();
          pending.clear();
          break;
        }
      }
      return make_error(Errc::kExhausted,
                        "instance admits no jointly secure schedule: " +
                            rest.error().message);
    }

    for (const NodeId u : round) {
      applied[u] = true;
      pending.erase(std::find(pending.begin(), pending.end(), u));
    }
    schedule.rounds.push_back(std::move(round));
  }

  if (options.base.with_cleanup) schedule.cleanup = inst.old_only_nodes();
  return schedule;
}

}  // namespace tsu::update
