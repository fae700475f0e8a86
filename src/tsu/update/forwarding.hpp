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

#include <array>
#include <cstdint>
#include <memory>
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

// The planners' and the checker's form of a state: bit i is set when the
// new rule of new_path()[i] has taken effect. It is exact, because a
// node's active rule depends on the state only when the node is on the new
// path. Masks over up to 64 * kInlineWords positions live inline, so
// building, copying and judging one allocates nothing; a longer path
// spills each mask's words to the heap once.
class PositionMask {
 public:
  static constexpr std::size_t kInlineWords = 4;

  explicit PositionMask(std::size_t positions = 0);
  PositionMask(const PositionMask& other);
  PositionMask& operator=(const PositionMask& other);

  std::size_t size() const noexcept { return positions_; }
  bool test(std::size_t pos) const noexcept {
    return ((data_[pos >> 6] >> (pos & 63)) & 1u) != 0;
  }
  void set(std::size_t pos) noexcept { data_[pos >> 6] |= bit(pos); }
  void reset(std::size_t pos) noexcept { data_[pos >> 6] &= ~bit(pos); }
  void assign(std::size_t pos, bool on) noexcept {
    if (on)
      set(pos);
    else
      reset(pos);
  }

 private:
  static std::uint64_t bit(std::size_t pos) noexcept {
    return std::uint64_t{1} << (pos & 63);
  }
  std::size_t words() const noexcept { return (positions_ + 63) / 64; }

  std::size_t positions_ = 0;
  std::array<std::uint64_t, kInlineWords> inline_{};
  std::unique_ptr<std::uint64_t[]> heap_;
  std::uint64_t* data_ = inline_.data();
};

// Conversions between the two forms (the node-indexed one allocates).
PositionMask positions_of(const Instance& inst, const StateMask& state);
StateMask state_of(const Instance& inst, const PositionMask& state);
// The new-path position of every node of `nodes` that is touched and not
// yet landed: the positions an adversary can still flip in a round.
PositionMask open_positions(const Instance& inst, const PositionMask& landed,
                            const std::vector<NodeId>& nodes);

// Active next hop of `v` under `state`; kInvalidNode when v has no rule.
NodeId active_next(const Instance& inst, const StateMask& state, NodeId v);
NodeId active_next(const Instance& inst, const PositionMask& state, NodeId v);

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
WalkResult walk_from_source(const Instance& inst, const PositionMask& state);

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
WalkVerdict walk_verdict(const Instance& inst, const PositionMask& state);

// The walk tree of a round: every state `state` ∪ S, S ⊆ `open`, judged
// by one walk. It is walk_verdict's loop, except that the first visit of an
// open position forks the walk: the node's update has landed (new rule),
// then it has not (old rule). A revisit reads the decision its branch
// already made. A leaf's walk read only the open positions decided on its
// branch, so its verdict holds for every state that agrees with those
// decisions: 2^(|open| - depth) of them. visit(verdict, depth) runs at each
// leaf in depth-first order, with `state` holding the landed decisions and
// `open` missing every decided position; returning false stops the tree.
// Both masks are restored when the tree returns. Allocation-free.
template <class Visit>
bool walk_tree(const Instance& inst, PositionMask& state, PositionMask& open,
               Visit&& visit);

// The functional graph of all active rules under `state` (for strong
// loop-freedom checks). Nodes: [0, inst.node_count()).
graph::Digraph active_graph(const Instance& inst, const StateMask& state);
graph::Digraph active_graph(const Instance& inst, const PositionMask& state);

// Adversarial union graph for a round: nodes in `applied` contribute their
// new rule, nodes in `round` contribute *both* rules (the adversary decides
// when each lands), all other old-path nodes contribute their old rule.
// Every per-subset active graph is a subgraph of this union graph, which is
// what makes it a sound safety certificate (see oracle.hpp).
graph::Digraph union_graph(const Instance& inst, const StateMask& applied,
                           const std::vector<NodeId>& round);

namespace detail {

// One branch of walk_tree, from node v after `hops` hops.
template <class Visit>
bool walk_branch(const Instance& inst, PositionMask& state, PositionMask& open,
                 NodeId v, std::size_t hops, bool via_waypoint,
                 std::size_t depth, Visit& visit) {
  constexpr std::uint32_t kNone = Instance::kNoPosition;
  const graph::Path& old_path = inst.old_path();
  const graph::Path& new_path = inst.new_path();
  const NodeId wp = inst.has_waypoint() ? *inst.waypoint() : kInvalidNode;
  const NodeId destination = inst.destination();
  const std::size_t hop_bound = old_path.size() + new_path.size();
  for (;; ++hops) {
    if (v == wp) via_waypoint = true;
    if (v == destination)
      return visit(WalkVerdict{WalkOutcome::kDelivered, via_waypoint}, depth);
    if (hops == hop_bound)
      return visit(WalkVerdict{WalkOutcome::kLoop, via_waypoint}, depth);
    const Instance::Positions at = inst.positions(v);
    const std::uint32_t p = at.new_pos;
    if (p != kNone && open.test(p)) {
      open.reset(p);
      state.set(p);
      bool more = walk_branch(inst, state, open, new_path[p + 1], hops + 1,
                              via_waypoint, depth + 1, visit);
      state.reset(p);
      if (more)
        more = at.old_pos == kNone
                   ? visit(WalkVerdict{WalkOutcome::kBlackhole, via_waypoint},
                           depth + 1)
                   : walk_branch(inst, state, open, old_path[at.old_pos + 1],
                                 hops + 1, via_waypoint, depth + 1, visit);
      open.set(p);
      return more;
    }
    if (p != kNone && state.test(p)) {
      v = new_path[p + 1];
    } else if (at.old_pos != kNone) {
      v = old_path[at.old_pos + 1];
    } else {
      return visit(WalkVerdict{WalkOutcome::kBlackhole, via_waypoint}, depth);
    }
  }
}

}  // namespace detail

template <class Visit>
bool walk_tree(const Instance& inst, PositionMask& state, PositionMask& open,
               Visit&& visit) {
  return detail::walk_branch(inst, state, open, inst.source(), 0, false, 0,
                             visit);
}

}  // namespace tsu::update
