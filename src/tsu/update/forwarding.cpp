#include "tsu/update/forwarding.hpp"

#include <algorithm>
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

PositionMask::PositionMask(std::size_t positions) : positions_(positions) {
  if (words() > kInlineWords) {
    heap_ = std::make_unique<std::uint64_t[]>(words());
    data_ = heap_.get();
  }
}

PositionMask::PositionMask(const PositionMask& other)
    : PositionMask(other.positions_) {
  std::copy_n(other.data_, words(), data_);
}

PositionMask& PositionMask::operator=(const PositionMask& other) {
  if (this == &other) return *this;
  if (other.words() > kInlineWords && words() != other.words()) {
    heap_ = std::make_unique<std::uint64_t[]>(other.words());
    data_ = heap_.get();
  } else if (other.words() <= kInlineWords) {
    heap_.reset();
    data_ = inline_.data();
  }
  positions_ = other.positions_;
  std::copy_n(other.data_, words(), data_);
  return *this;
}

PositionMask positions_of(const Instance& inst, const StateMask& state) {
  TSU_ASSERT(state.size() == inst.node_count());
  const graph::Path& path = inst.new_path();
  PositionMask positions(path.size());
  for (std::size_t i = 0; i < path.size(); ++i)
    if (state[path[i]]) positions.set(i);
  return positions;
}

StateMask state_of(const Instance& inst, const PositionMask& state) {
  const graph::Path& path = inst.new_path();
  StateMask nodes = empty_state(inst);
  for (std::size_t i = 0; i < path.size(); ++i)
    if (state.test(i)) nodes[path[i]] = true;
  return nodes;
}

PositionMask open_positions(const Instance& inst, const PositionMask& landed,
                            const std::vector<NodeId>& nodes) {
  PositionMask open(inst.new_path().size());
  for (const NodeId v : nodes) {
    const std::uint32_t p = inst.positions(v).new_pos;
    if (p != Instance::kNoPosition && !landed.test(p) && inst.is_touched(v))
      open.set(p);
  }
  return open;
}

NodeId active_next(const Instance& inst, const StateMask& state, NodeId v) {
  TSU_ASSERT(v < inst.node_count());
  if (inst.on_new(v) && state[v]) return inst.new_next(v);
  if (inst.on_old(v)) return inst.old_next(v);
  return kInvalidNode;
}

NodeId active_next(const Instance& inst, const PositionMask& state,
                   NodeId v) {
  const Instance::Positions at = inst.positions(v);
  if (at.new_pos != Instance::kNoPosition && state.test(at.new_pos))
    return inst.new_next(v);
  return inst.old_next(v);
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
  return walk_from_source(inst, positions_of(inst, state));
}

WalkResult walk_from_source(const Instance& inst,
                            const PositionMask& state) {
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
  return walk_verdict(inst, positions_of(inst, state));
}

// walk_tree's loop with nothing open: one state, one leaf.
WalkVerdict walk_verdict(const Instance& inst, const PositionMask& state) {
  constexpr std::uint32_t kNone = Instance::kNoPosition;
  const graph::Path& old_path = inst.old_path();
  const graph::Path& new_path = inst.new_path();
  const NodeId wp = inst.has_waypoint() ? *inst.waypoint() : kInvalidNode;
  const NodeId destination = inst.destination();
  const std::size_t hop_bound = old_path.size() + new_path.size();

  WalkVerdict verdict;
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
    const Instance::Positions at = inst.positions(v);
    if (at.new_pos != kNone && state.test(at.new_pos)) {
      v = new_path[at.new_pos + 1];
    } else if (at.old_pos != kNone) {
      v = old_path[at.old_pos + 1];
    } else {
      verdict.outcome = WalkOutcome::kBlackhole;
      return verdict;
    }
  }
}

graph::Digraph active_graph(const Instance& inst, const StateMask& state) {
  return active_graph(inst, positions_of(inst, state));
}

graph::Digraph active_graph(const Instance& inst, const PositionMask& state) {
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
  // A scheduled node past node_count() holds no rule: nothing to add.
  StateMask in_round(inst.node_count(), false);
  for (const NodeId v : round)
    if (v < in_round.size()) in_round[v] = true;

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
