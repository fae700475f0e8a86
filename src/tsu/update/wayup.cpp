// WayUp: constant-round waypoint-enforcing update scheduler.
//
// Reconstruction of the WayUp algorithm the paper executes (Ludwig, Rost,
// Foucard, Schmid, "Good Network Updates for Bad Packets", HotNets'14; the
// demo paper cites it as [5] and inherits its guarantee "waypoint
// enforcement"). The cited paper is not restated in the demo, so the round
// structure below is derived from first principles and machine-checked by
// tests/update_property_test.cpp against the exhaustive transient-state
// checker on thousands of random instances.
//
// Notation (see the README section "Update semantics and the
// planner/checker kernel"): s/d endpoints, w waypoint; O1/N1 = old/new path
// up to and including w; O2/N2 = from w on. Conflict sets
//   X = (N1 ∩ O2) \ {w}   and   Y = (O1 ∩ N2) \ {w}.
//
// Rounds:
//   R1  new-only nodes. Traffic still runs entirely on the old path and no
//       old-path node forwards into a new-only node yet, so these installs
//       are invisible: every subset state forwards exactly like the initial
//       state. Safe.
//   R2  (O2 ∩ P_new) \ {w}: every node here lies strictly behind w on the
//       old path, and - because no O1 node has been touched - a packet can
//       only arrive at it *after* traversing w. Whatever subset of R2 has
//       landed, a delivered packet already passed the waypoint: no bypass.
//       (X ⊆ R2 is the point: X nodes are re-aimed at the new prefix, i.e.
//       towards w, *before* any traffic can enter the new prefix.)
//   R3  O1 ∩ N1 (includes s and w). In the region before w, every active
//       edge now leads towards w: old rules follow O1, new rules follow N1
//       whose members are new-only (R1), X (R2) or in-round O1∩N1 nodes.
//       A packet therefore cannot leave the before-w region except at w,
//       in any subset state - so it cannot be delivered while skipping w.
//       Behind w nothing changed since R2, where delivery was already
//       waypoint-clean. Transient *loops* are possible here; WayUp, like
//       its namesake, trades loop freedom for waypoint enforcement (the
//       two are not always jointly satisfiable - see the twophase comment
//       and the SIGMETRICS'16 impossibility).
//   R4  Y. After R3 the live path is s -N1-> w, so a packet reaches a Y
//       node only after w; flipping Y onto the new suffix can no longer
//       skip the waypoint. (Updating Y any earlier is the classic bypass:
//       Y sits before w on the old path.)
//
// Empty rounds are dropped, so the schedule has at most 4 rounds plus the
// optional cleanup of old-only rules, which runs when the new path is fully
// live and old-only nodes are unreachable.
#include "tsu/update/schedulers.hpp"

#include <algorithm>
#include <array>

namespace tsu::update {

Result<Schedule> plan_wayup(const Instance& inst,
                            const SchedulerOptions& options) {
  if (!inst.has_waypoint())
    return make_error(Errc::kFailedPrecondition, "wayup requires a waypoint");

  const NodeId w = *inst.waypoint();
  const std::size_t w_old = *inst.old_pos(w);
  const std::size_t w_new = *inst.new_pos(w);

  // Each touched node's round: 0 = R1 installs, 1 = R2 behind the
  // waypoint (includes X), 2 = R3 prefix O1 ∩ N1 (includes s and w),
  // 3 = R4 Y = O1 ∩ N2.
  const auto round_of = [&](NodeId v) -> std::size_t {
    if (inst.role(v) == NodeRole::kNewOnly) return 0;
    // v is on both paths (old-only nodes are never touched).
    if (v == w) return 2;
    if (*inst.old_pos(v) > w_old) return 1;
    return *inst.new_pos(v) < w_new ? 2 : 3;
  };
  std::array<std::size_t, 4> sizes{};
  for (const NodeId v : inst.touched()) ++sizes[round_of(v)];

  Schedule schedule;
  schedule.algorithm = "wayup";
  schedule.rounds.reserve(static_cast<std::size_t>(
      std::count_if(sizes.begin(), sizes.end(),
                    [](std::size_t size) { return size != 0; })));
  std::array<std::size_t, 4> slot{};
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    if (sizes[r] == 0) continue;
    slot[r] = schedule.rounds.size();
    schedule.rounds.emplace_back().reserve(sizes[r]);
  }
  for (const NodeId v : inst.touched())
    schedule.rounds[slot[round_of(v)]].push_back(v);
  if (options.with_cleanup) schedule.cleanup = inst.old_only_nodes();
  return schedule;
}

}  // namespace tsu::update
