#include "tsu/update/oracle.hpp"

#include <array>
#include <string>

#include "tsu/graph/algorithms.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::update {

std::string property_name(std::uint32_t mask) {
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if ((mask & kWaypoint) != 0) append("WPE");
  if ((mask & kLoopFree) != 0) append("WLF");
  if ((mask & kGlobalLoopFree) != 0) append("SLF");
  if ((mask & kBlackholeFree) != 0) append("BH");
  if (out.empty()) out = "none";
  return out;
}

std::uint32_t walk_violations(const Instance& inst, const WalkVerdict& walk,
                              std::uint32_t properties) {
  std::uint32_t failed = 0;
  if ((properties & kWaypoint) != 0 && inst.has_waypoint() &&
      walk.outcome == WalkOutcome::kDelivered && !walk.visited_waypoint)
    failed |= kWaypoint;
  if ((properties & kLoopFree) != 0 && walk.outcome == WalkOutcome::kLoop)
    failed |= kLoopFree;
  if ((properties & kBlackholeFree) != 0 &&
      walk.outcome == WalkOutcome::kBlackhole)
    failed |= kBlackholeFree;
  return failed;
}

std::uint32_t violated_bits(const Instance& inst, const PositionMask& state,
                            std::uint32_t properties) {
  std::uint32_t failed = 0;
  if ((properties & (kWaypoint | kLoopFree | kBlackholeFree)) != 0)
    failed = walk_violations(inst, walk_verdict(inst, state), properties);
  if ((properties & kGlobalLoopFree) != 0 &&
      !graph::is_acyclic(active_graph(inst, state)))
    failed |= kGlobalLoopFree;
  return failed;
}

bool state_satisfies(const Instance& inst, const StateMask& state,
                     std::uint32_t properties) {
  return state_satisfies(inst, positions_of(inst, state), properties);
}

bool state_satisfies(const Instance& inst, const PositionMask& state,
                     std::uint32_t properties) {
  return violated_bits(inst, state, properties) == 0;
}

bool round_safe_union_certificate(const Instance& inst,
                                  const StateMask& applied,
                                  const std::vector<NodeId>& round,
                                  std::uint32_t properties) {
  const graph::Digraph g = union_graph(inst, applied, round);
  const NodeId s = inst.source();
  const NodeId d = inst.destination();

  if ((properties & kWaypoint) != 0 && inst.has_waypoint()) {
    // A bypass in any subset state is a w-avoiding s->d walk in that state's
    // functional graph, hence a w-avoiding s->d path in the union graph.
    if (!graph::shortest_path_avoiding(g, s, d, *inst.waypoint()).empty())
      return false;
  }
  if ((properties & kLoopFree) != 0) {
    // A reachable cycle in any subset state is a reachable cycle here.
    if (graph::cycle_reachable_from(g, s)) return false;
  }
  if ((properties & kGlobalLoopFree) != 0) {
    // Exact for SLF: a union-graph cycle visits each node once, so the
    // subset that picks each cycle node's witnessed rule realizes it.
    if (!graph::is_acyclic(g)) return false;
  }
  if ((properties & kBlackholeFree) != 0) {
    // A node is a potential blackhole if some subset state leaves it
    // rule-less while reachable: new-only nodes of the current round (not
    // yet installed) and nodes with no rule at all.
    const std::vector<bool> reach = graph::reachable_from(g, s);
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      if (v == d || !reach[v]) continue;
      const bool has_old = inst.on_old(v);
      const bool has_new_installed = inst.on_new(v) && applied[v];
      if (!has_old && !has_new_installed) return false;
    }
  }
  return true;
}

bool round_safe_exhaustive(const Instance& inst, const StateMask& applied,
                           const std::vector<NodeId>& round,
                           std::uint32_t properties) {
  TSU_ASSERT_MSG(round.size() <= 63, "round too large for exhaustive check");
  const PositionMask landed = positions_of(inst, applied);
  return round_safe_exhaustive(inst, landed,
                               open_positions(inst, landed, round),
                               properties);
}

bool round_safe_exhaustive(const Instance& inst, const PositionMask& landed,
                           const PositionMask& open,
                           std::uint32_t properties) {
  PositionMask state = landed;
  PositionMask unread = open;
  if ((properties & kGlobalLoopFree) == 0)
    return walk_tree(inst, state, unread,
                     [&](const WalkVerdict& walk, std::size_t /*depth*/) {
                       return walk_violations(inst, walk, properties) == 0;
                     });
  // Strong loop freedom reads every rule, not one walk: judge each state.
  std::array<std::uint32_t, 63> slots{};
  std::size_t count = 0;
  for (std::size_t p = 0; p < open.size(); ++p) {
    if (!open.test(p)) continue;
    TSU_ASSERT_MSG(count < slots.size(),
                   "round too large for exhaustive check");
    slots[count++] = static_cast<std::uint32_t>(p);
  }
  const std::uint64_t subsets = std::uint64_t{1} << count;
  for (std::uint64_t bits = 0; bits < subsets; ++bits) {
    for (std::size_t i = 0; i < count; ++i)
      state.assign(slots[i], ((bits >> i) & 1ULL) != 0);
    if (!state_satisfies(inst, state, properties)) return false;
  }
  return true;
}

bool round_safe(const Instance& inst, const StateMask& applied,
                const std::vector<NodeId>& round, std::uint32_t properties,
                const OracleOptions& options) {
  if (round.size() <= options.exhaustive_limit)
    return round_safe_exhaustive(inst, applied, round, properties);
  if (round_safe_union_certificate(inst, applied, round, properties))
    return true;
  // The certificate is conservative; sample random subsets looking for a
  // concrete counterexample before giving up. If none is found we still
  // report unsafe (soundness first): schedulers must then shrink the round.
  // A node past node_count() holds no rule; it draws like any other node.
  Rng rng(options.monte_carlo_seed);
  StateMask state = applied;
  for (std::size_t sample = 0; sample < options.monte_carlo_samples;
       ++sample) {
    for (const NodeId v : round) {
      if (v >= state.size()) {
        rng.bernoulli(0.5);
        continue;
      }
      state[v] = applied[v] || rng.bernoulli(0.5);
    }
    if (!state_satisfies(inst, state, properties)) return false;
  }
  return false;
}

bool round_safe_with(const Instance& inst, const PositionMask& landed,
                     const std::vector<NodeId>& round,
                     const PositionMask& open, NodeId u,
                     std::uint32_t properties, const OracleOptions& options) {
  if (round.size() + 1 > options.exhaustive_limit) {
    std::vector<NodeId> grown = round;
    grown.push_back(u);
    return round_safe(inst, state_of(inst, landed), grown, properties,
                      options);
  }
  const std::uint32_t p = inst.positions(u).new_pos;
  const bool flips =
      p != Instance::kNoPosition && !landed.test(p) && inst.is_touched(u);
  if (round.empty()) {
    PositionMask open_u = open;
    if (flips) open_u.set(p);
    return round_safe_exhaustive(inst, landed, open_u, properties);
  }
  if (!flips) return true;
  PositionMask with_u = landed;
  with_u.set(p);
  return round_safe_exhaustive(inst, with_u, open, properties);
}

}  // namespace tsu::update
