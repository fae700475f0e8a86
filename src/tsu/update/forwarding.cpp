#include "tsu/update/forwarding.hpp"

#include <sstream>

namespace tsu::update {

StateMask empty_state(const Instance& inst) {
  return StateMask(inst.node_count(), false);
}

StateMask full_state(const Instance& inst) {
  StateMask state(inst.node_count(), false);
  for (const NodeId v : inst.touched()) state[v] = true;
  return state;
}

NodeId active_next(const Instance& inst, const StateMask& state, NodeId v) {
  TSU_ASSERT(v < inst.node_count());
  if (inst.on_new(v) && state[v]) return inst.new_next(v);
  if (inst.on_old(v)) return inst.old_next(v);
  return kInvalidNode;
}

const char* to_string(WalkOutcome outcome) noexcept {
  switch (outcome) {
    case WalkOutcome::kDelivered: return "delivered";
    case WalkOutcome::kBlackhole: return "blackhole";
    case WalkOutcome::kLoop: return "loop";
  }
  return "?";
}

std::string WalkResult::to_string() const {
  std::ostringstream out;
  out << update::to_string(outcome) << " trace=<";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i != 0) out << ",";
    out << trace[i];
  }
  out << ">" << (visited_waypoint ? " via-wp" : "");
  return out.str();
}

WalkResult walk_from_source(const Instance& inst, const StateMask& state) {
  TSU_ASSERT(state.size() == inst.node_count());
  WalkResult result;
  std::vector<bool> visited(inst.node_count(), false);
  const NodeId wp =
      inst.has_waypoint() ? *inst.waypoint() : kInvalidNode;

  NodeId v = inst.source();
  while (true) {
    result.trace.push_back(v);
    if (v == wp) result.visited_waypoint = true;
    if (v == inst.destination()) {
      result.outcome = WalkOutcome::kDelivered;
      return result;
    }
    if (visited[v]) {
      result.outcome = WalkOutcome::kLoop;
      return result;
    }
    visited[v] = true;
    const NodeId next = active_next(inst, state, v);
    if (next == kInvalidNode) {
      result.outcome = WalkOutcome::kBlackhole;
      return result;
    }
    v = next;
  }
}

WalkVerdict walk_verdict(const Instance& inst, const StateMask& state) {
  TSU_ASSERT(state.size() == inst.node_count());
  WalkVerdict verdict;
  const NodeId wp = inst.has_waypoint() ? *inst.waypoint() : kInvalidNode;
  const NodeId destination = inst.destination();
  const std::size_t hop_bound =
      inst.old_path().size() + inst.new_path().size();

  NodeId v = inst.source();
  for (std::size_t hops = 0;; ++hops) {
    if (v == wp) verdict.visited_waypoint = true;
    if (v == destination) {
      verdict.outcome = WalkOutcome::kDelivered;
      return verdict;
    }
    if (hops == hop_bound) {
      verdict.outcome = WalkOutcome::kLoop;
      return verdict;
    }
    v = active_next(inst, state, v);
    if (v == kInvalidNode) {
      verdict.outcome = WalkOutcome::kBlackhole;
      return verdict;
    }
  }
}

graph::Digraph active_graph(const Instance& inst, const StateMask& state) {
  graph::Digraph g(inst.node_count());
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    const NodeId next = active_next(inst, state, v);
    if (next != kInvalidNode) g.add_edge(v, next);
  }
  return g;
}

graph::Digraph union_graph(const Instance& inst, const StateMask& applied,
                           const std::vector<NodeId>& round) {
  TSU_ASSERT(applied.size() == inst.node_count());
  graph::Digraph g(inst.node_count());
  StateMask in_round(inst.node_count(), false);
  for (const NodeId v : round) in_round[v] = true;

  for (NodeId v = 0; v < inst.node_count(); ++v) {
    if (v == inst.destination()) continue;
    const bool updated = inst.on_new(v) && applied[v];
    if (updated) {
      g.add_edge(v, inst.new_next(v));
      continue;
    }
    if (in_round[v]) {
      // Both rules may be observed while the round is in flight.
      if (inst.on_new(v)) g.add_edge(v, inst.new_next(v));
      if (inst.on_old(v)) g.add_edge(v, inst.old_next(v));
      continue;
    }
    if (inst.on_old(v)) g.add_edge(v, inst.old_next(v));
  }
  return g;
}

}  // namespace tsu::update
