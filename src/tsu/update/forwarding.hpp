// Forwarding semantics of a transient state.
//
// A transient state is the set of touched nodes whose new rule has already
// taken effect. The active rule of a node is then:
//   - its new next-hop, if the node is on the new path and updated,
//   - else its old next-hop, if the node is on the old path,
//   - else no rule (packets reaching it are dropped - a blackhole).
// A packet injected at the source performs a deterministic walk over active
// rules; the walk terminates at the destination, at a rule-less node, or
// when it revisits a node (a forwarding loop). See the README section
// "Update semantics and the planner/checker kernel".
#pragma once

#include <string>
#include <vector>

#include "tsu/graph/graph.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::update {

// Set of updated nodes, indexed by NodeId (size = instance.node_count()).
using StateMask = std::vector<bool>;

StateMask empty_state(const Instance& inst);
StateMask full_state(const Instance& inst);

// Active next hop of `v` under `state`; kInvalidNode when v has no rule.
NodeId active_next(const Instance& inst, const StateMask& state, NodeId v);

enum class WalkOutcome : unsigned char {
  kDelivered,  // reached the destination
  kBlackhole,  // reached a node with no active rule
  kLoop,       // revisited a node
};

const char* to_string(WalkOutcome outcome) noexcept;

struct WalkResult {
  WalkOutcome outcome = WalkOutcome::kDelivered;
  bool visited_waypoint = false;   // meaningful only if inst.has_waypoint()
  std::vector<NodeId> trace;       // nodes in visit order, starting at source

  std::string to_string() const;
};

// Deterministic walk from the instance source under `state`.
WalkResult walk_from_source(const Instance& inst, const StateMask& state);

// The verdict of walk_from_source without the trace: same outcome, and the
// same visited_waypoint (on loops too - the loop's nodes are the same set).
// Allocation-free; loops are found by a hop bound instead of a visited set.
// Only nodes of the old or new path hold rules, so a walk still running
// after old.size() + new.size() hops has revisited a node.
struct WalkVerdict {
  WalkOutcome outcome = WalkOutcome::kDelivered;
  bool visited_waypoint = false;
};

WalkVerdict walk_verdict(const Instance& inst, const StateMask& state);

// The functional graph of all active rules under `state` (for strong
// loop-freedom checks). Nodes: [0, inst.node_count()).
graph::Digraph active_graph(const Instance& inst, const StateMask& state);

// Adversarial union graph for a round: nodes in `applied` contribute their
// new rule, nodes in `round` contribute *both* rules (the adversary decides
// when each lands), all other old-path nodes contribute their old rule.
// Every per-subset active graph is a subgraph of this union graph, which is
// what makes it a sound safety certificate (see oracle.hpp).
graph::Digraph union_graph(const Instance& inst, const StateMask& applied,
                           const std::vector<NodeId>& round);

}  // namespace tsu::update
