#include "tsu/update/oracle.hpp"

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

bool state_satisfies(const Instance& inst, const StateMask& state,
                     std::uint32_t properties) {
  if ((properties & (kWaypoint | kLoopFree | kBlackholeFree)) != 0) {
    const WalkVerdict walk = walk_verdict(inst, state);
    if ((properties & kWaypoint) != 0 && inst.has_waypoint() &&
        walk.outcome == WalkOutcome::kDelivered && !walk.visited_waypoint)
      return false;
    if ((properties & kLoopFree) != 0 && walk.outcome == WalkOutcome::kLoop)
      return false;
    if ((properties & kBlackholeFree) != 0 &&
        walk.outcome == WalkOutcome::kBlackhole)
      return false;
  }
  if ((properties & kGlobalLoopFree) != 0) {
    if (!graph::is_acyclic(active_graph(inst, state))) return false;
  }
  return true;
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
    StateMask in_round(inst.node_count(), false);
    for (const NodeId v : round) in_round[v] = true;
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
  StateMask state = applied;
  const std::uint64_t subsets = 1ULL << round.size();
  for (std::uint64_t bits = 0; bits < subsets; ++bits) {
    for (std::size_t i = 0; i < round.size(); ++i)
      state[round[i]] = applied[round[i]] || ((bits >> i) & 1ULL) != 0;
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
  Rng rng(options.monte_carlo_seed);
  StateMask state = applied;
  for (std::size_t sample = 0; sample < options.monte_carlo_samples;
       ++sample) {
    for (const NodeId v : round)
      state[v] = applied[v] || rng.bernoulli(0.5);
    if (!state_satisfies(inst, state, properties)) return false;
  }
  return false;
}

}  // namespace tsu::update
