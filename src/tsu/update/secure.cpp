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
//      the grown round passes the full WPE+WLF+BH oracle (round_safe_with:
//      only the states in which the node has landed are new),
//   3. if the greedy stalls, an exhaustive search over round choices
//      (small instances) decides feasibility exactly; instances that are
//      genuinely infeasible - including the paper's own Figure 1 scenario -
//      are reported as kExhausted, reproducing the impossibility.
//
// bench_secure_feasibility (E10) measures how often random instances admit
// a jointly secure schedule and what it costs in rounds.
#include "tsu/update/schedulers.hpp"

#include <algorithm>

#include "tsu/util/inline_array.hpp"

namespace tsu::update {

Result<Schedule> plan_secure(const Instance& inst,
                             const SecureOptions& options) {
  if (!inst.has_waypoint())
    return make_error(Errc::kFailedPrecondition,
                      "plan_secure requires a waypoint");
  const std::uint32_t property = kTransientlySecure;
  const std::vector<NodeId>& touched = inst.touched();
  const graph::Path& new_path = inst.new_path();
  const auto position = [&](NodeId v) { return inst.positions(v).new_pos; };
  const auto is_install = [&](NodeId v) {
    return inst.role(v) == NodeRole::kNewOnly;
  };

  // Install round: new-only nodes are unreachable until an old-path rule
  // flips, so they can never bypass the waypoint, loop, or blackhole.
  const auto installs = static_cast<std::size_t>(
      std::count_if(touched.begin(), touched.end(), is_install));
  std::size_t pending_count = touched.size() - installs;

  // Every later round retires at least one node.
  Schedule schedule;
  schedule.algorithm = "secure";
  schedule.rounds.reserve((installs != 0 ? 1 : 0) + pending_count);
  PositionMask applied(new_path.size());
  PositionMask pending(new_path.size());
  if (installs != 0) {
    Round& round = schedule.rounds.emplace_back();
    round.reserve(installs);
    for (const NodeId v : touched)
      if (is_install(v)) round.push_back(v);
  }
  for (const NodeId v : touched)
    (is_install(v) ? applied : pending).set(position(v));

  // Candidate order: WayUp's phases are a good heuristic for the joint
  // property too - nodes behind the waypoint first, then the prefix, then Y
  // (Y = O1 ∩ N2: nodes behind w on the new path and before it on the old).
  const NodeId w = *inst.waypoint();
  const std::size_t w_old = *inst.old_pos(w);
  const std::size_t w_new = *inst.new_pos(w);
  const bool y_empty = std::none_of(
      new_path.begin() + static_cast<std::ptrdiff_t>(w_new) + 1,
      new_path.end(), [&](NodeId v) {
        const auto pos_old = inst.old_pos(v);
        return pos_old.has_value() && *pos_old < w_old;
      });
  const auto phase = [&](NodeId v) -> int {
    if (v == w) return 1;
    const auto pos_old = inst.old_pos(v);
    if (!pos_old.has_value()) return 0;
    return *pos_old > w_old ? 0 : (y_empty ? 1 : 2);
  };
  // The order of the pending nodes is the same in every round.
  util::InlineArray<NodeId, 64> order(pending_count);
  std::copy_if(touched.begin(), touched.end(), order.begin(),
               [&](NodeId v) { return !is_install(v); });
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const int pa = phase(a);
    const int pb = phase(b);
    if (pa != pb) return pa < pb;
    return a < b;
  });

  while (pending_count != 0) {
    Round round;
    round.reserve(pending_count);
    PositionMask open(new_path.size());
    for (const NodeId u : order) {
      if (!pending.test(position(u)) ||
          !round_safe_with(inst, applied, round, open, u, property,
                           options.base.oracle))
        continue;
      round.push_back(u);
      open.set(position(u));
    }

    if (round.empty()) {
      if (!options.search_fallback ||
          pending_count > options.search_node_limit)
        return make_error(Errc::kExhausted,
                          "no jointly WPE+loop-free round exists from the "
                          "current state (instance may be infeasible)");
      std::vector<NodeId> rest;
      for (std::size_t p = 0; p < new_path.size(); ++p)
        if (pending.test(p)) rest.push_back(new_path[p]);
      Result<std::vector<Round>> tail =
          search_rounds(inst, applied, rest, property,
                        /*max_rounds=*/rest.size(), options.base.oracle);
      if (tail.ok()) {
        for (Round& r : tail.value()) schedule.rounds.push_back(std::move(r));
        break;
      }
      // The greedy prefix may itself have painted us into the corner;
      // decide feasibility exactly by searching from scratch.
      if (touched.size() <= options.search_node_limit) {
        Result<std::vector<Round>> from_scratch = search_rounds(
            inst, PositionMask(new_path.size()), touched, property,
            /*max_rounds=*/touched.size(), options.base.oracle);
        if (from_scratch.ok()) {
          schedule.rounds = std::move(from_scratch).value();
          break;
        }
      }
      return make_error(Errc::kExhausted,
                        "instance admits no jointly secure schedule: " +
                            tail.error().message);
    }

    for (const NodeId u : round) {
      applied.set(position(u));
      pending.reset(position(u));
    }
    pending_count -= round.size();
    schedule.rounds.push_back(std::move(round));
  }

  if (options.base.with_cleanup) schedule.cleanup = inst.old_only_nodes();
  return schedule;
}

}  // namespace tsu::update
