// Peacock: weak-loop-freedom scheduler.
//
// Reconstruction of the Peacock algorithm the paper executes (Ludwig,
// Marcinkowski, Schmid, "Scheduling Loop-Free Network Updates: It's Good to
// Relax!", PODC'15; cited as [4] with the guarantee "weak loop freedom").
// The demo does not restate the algorithm, so we reproduce its structure -
// relaxed loop freedom, forward edges together, backward edges retired over
// few rounds - and machine-check every schedule against the exhaustive
// transient-state checker (tests/update_property_test.cpp).
//
// Terminology: relabel nodes by their position on the old path. For a
// touched node u on both paths, its *effective target* t(u) is the first
// old-path node reached from u along the new path (new-only chain nodes in
// between are transparent: they are installed before any traffic can reach
// them). The move at u is FORWARD if t(u) lies later on the old path than
// u, BACKWARD otherwise.
//
// Rounds:
//   R1  new-only installs. No old-path rule has changed, so these nodes are
//       unreachable in every subset state: trivially safe.
//   R2  all FORWARD nodes at once. In any subset state every active edge
//       increases the old-path position (old rules by +1; updated rules
//       jump, possibly through a new-only chain, to a strictly later
//       old-path node; chains of still-old backward nodes can only be
//       entered through their head, which is not updated). A cycle would
//       need a position-decreasing edge - there is none. This round is even
//       strongly loop-free.
//   R3+ BACKWARD nodes, retired greedily: candidates off the current live
//       walk first (flipping a node the walk never visits cannot change the
//       walk - always safe), then on-walk candidates from the destination
//       side backwards; each addition is admitted only if the grown round
//       passes the WLF safety oracle (exhaustive for small rounds, where
//       only the states in which the addition has landed are new; sound
//       union-graph certificate for large ones). If no candidate can be
//       placed, an exhaustive search over round choices takes over (small
//       instances; PODC'15 guarantees WLF schedules always exist).
#include "tsu/update/schedulers.hpp"

#include <algorithm>
#include <limits>

#include "tsu/util/inline_array.hpp"

namespace tsu::update {

namespace {

constexpr std::uint32_t kNone = Instance::kNoPosition;
constexpr std::uint32_t kOffWalk = std::numeric_limits<std::uint32_t>::max();

// First old-path node reached from `u` along the new path (u itself must be
// on both paths). Always exists because the destination is on both paths.
NodeId effective_target(const Instance& inst, NodeId u) {
  NodeId v = inst.new_next(u);
  while (v != kInvalidNode && !inst.on_old(v)) v = inst.new_next(v);
  TSU_ASSERT_MSG(v != kInvalidNode, "new path must rejoin the old path at d");
  return v;
}

enum class Move : unsigned char { kInstall, kForward, kBackward };

Move move_of(const Instance& inst, NodeId v) {
  if (inst.role(v) == NodeRole::kNewOnly) return Move::kInstall;
  const NodeId target = effective_target(inst, v);
  return *inst.old_pos(target) > *inst.old_pos(v) ? Move::kForward
                                                  : Move::kBackward;
}

// walk_pos[i]: the index of new_path()[i] in walk_from_source(inst,
// applied).trace (its last one, for the node a loop revisits), kOffWalk
// when the walk misses it. The trace itself is never built.
void index_live_walk(const Instance& inst, const PositionMask& applied,
                     util::InlineArray<std::uint32_t, 64>& walk_pos) {
  std::fill(walk_pos.begin(), walk_pos.end(), kOffWalk);
  // Nodes off the new path the walk has visited, by old-path position.
  PositionMask seen_off_new(inst.old_path().size());
  NodeId v = inst.source();
  for (std::uint32_t i = 0;; ++i) {
    const Instance::Positions at = inst.positions(v);
    bool seen = false;
    if (at.new_pos != kNone) {
      seen = walk_pos[at.new_pos] != kOffWalk;
      walk_pos[at.new_pos] = i;
    } else if (at.old_pos != kNone) {
      seen = seen_off_new.test(at.old_pos);
      seen_off_new.set(at.old_pos);
    }
    if (v == inst.destination() || seen) return;
    v = active_next(inst, applied, v);
    if (v == kInvalidNode) return;
  }
}

}  // namespace

Result<Schedule> plan_peacock(const Instance& inst,
                              const PeacockOptions& options) {
  const std::vector<NodeId>& touched = inst.touched();
  const std::size_t positions = inst.new_path().size();
  util::InlineArray<Move, 64> moves(touched.size());
  std::size_t installs = 0;
  std::size_t forward = 0;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    moves[i] = move_of(inst, touched[i]);
    if (moves[i] == Move::kInstall) ++installs;
    if (moves[i] == Move::kForward) ++forward;
  }
  std::size_t backward = touched.size() - installs - forward;

  // Every backward round retires at least one node.
  Schedule schedule;
  schedule.algorithm = "peacock";
  schedule.rounds.reserve((installs != 0 ? 1 : 0) + (forward != 0 ? 1 : 0) +
                          backward);
  PositionMask applied(positions);
  PositionMask pending(positions);  // the backward nodes not yet scheduled
  for (const auto& [move, size] : {std::pair{Move::kInstall, installs},
                                  std::pair{Move::kForward, forward}}) {
    if (size == 0) continue;
    Round& round = schedule.rounds.emplace_back();
    round.reserve(size);
    for (std::size_t i = 0; i < touched.size(); ++i)
      if (moves[i] == move) round.push_back(touched[i]);
  }
  for (std::size_t i = 0; i < touched.size(); ++i)
    (moves[i] == Move::kBackward ? pending : applied)
        .set(inst.positions(touched[i]).new_pos);

  const std::uint32_t property = kPeacockGuarantee;
  util::InlineArray<std::uint32_t, 64> walk_pos(positions);
  util::InlineArray<NodeId, 64> candidates(backward);
  while (backward != 0) {
    // Order candidates: off-walk nodes first, then on-walk nodes from the
    // destination side backwards.
    index_live_walk(inst, applied, walk_pos);
    std::size_t count = 0;
    for (std::size_t p = 0; p < positions; ++p)
      if (pending.test(p)) candidates[count++] = inst.new_path()[p];
    const auto walk_index = [&](NodeId v) {
      return walk_pos[inst.positions(v).new_pos];
    };
    std::sort(candidates.begin(), candidates.begin() + count,
              [&](NodeId a, NodeId b) {
                const std::uint32_t wa = walk_index(a);
                const std::uint32_t wb = walk_index(b);
                if ((wa != kOffWalk) != (wb != kOffWalk))
                  return wa == kOffWalk;
                if (wa != kOffWalk) return wa > wb;
                return a < b;
              });

    Round round;
    round.reserve(count);
    PositionMask open(positions);
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId u = candidates[i];
      if (!round_safe_with(inst, applied, round, open, u, property,
                           options.base.oracle))
        continue;
      round.push_back(u);
      open.set(inst.positions(u).new_pos);
    }

    if (round.empty()) {
      // Greedy dead end; delegate the remaining nodes to exhaustive search.
      if (!options.search_fallback ||
          backward > options.search_node_limit)
        return make_error(Errc::kExhausted,
                          "peacock greedy could not place any backward node");
      std::vector<NodeId> rest;
      for (std::size_t p = 0; p < positions; ++p)
        if (pending.test(p)) rest.push_back(inst.new_path()[p]);
      Result<std::vector<Round>> tail =
          search_rounds(inst, applied, rest, property,
                        /*max_rounds=*/rest.size(), options.base.oracle);
      if (!tail.ok()) return tail.error();
      for (Round& r : tail.value()) schedule.rounds.push_back(std::move(r));
      break;
    }

    for (const NodeId u : round) {
      const std::uint32_t p = inst.positions(u).new_pos;
      applied.set(p);
      pending.reset(p);
    }
    backward -= round.size();
    schedule.rounds.push_back(std::move(round));
  }

  if (options.base.with_cleanup) schedule.cleanup = inst.old_only_nodes();
  return schedule;
}

}  // namespace tsu::update
