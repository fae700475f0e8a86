// Minimum-round schedules by exhaustive search (iterative deepening over
// the number of rounds, DFS over candidate rounds, memoized dead ends).
//
// Round safety is subset-closed (a round is safe only if *every* subset
// state is safe, so any subset of a safe round is safe), but it is not
// monotone in the applied set - updating more nodes earlier can make a later
// round unsafe. Hence the search enumerates all subsets of the pending set
// as the next round rather than only maximal ones.
//
// Every state the search asks about is initial ∪ pending[mask] for some
// mask over the p pending nodes, so there are only 2^p distinct states. A
// lazily filled verdict table (2 bits per mask) walks each of them at most
// once, on a position mask it updates bit by bit; checking a candidate
// round is then a sub-subset loop over table lookups. Cost is ≤ 2^p walks
// + 3^p lookups per round enumeration; the node_limit keeps this in laptop
// range. Used by plan_optimal, by the Peacock and secure fallbacks, and by
// bench_wayup_rounds (E5) to measure the optimality gap of WayUp/Peacock
// on small instances.
#include "tsu/update/schedulers.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace tsu::update {

namespace {

constexpr std::size_t kMaxPending = 24;

class RoundSearch {
 public:
  RoundSearch(const Instance& inst, const PositionMask& initial,
              const std::vector<NodeId>& pending, std::uint32_t properties)
      : inst_(inst), initial_(initial), pending_(pending),
        properties_(properties), state_(initial),
        verdicts_(((std::size_t{1} << pending.size()) + 31) / 32, 0),
        failed_(std::size_t{1} << pending.size(), 0) {
    // A pending node off the new path never changes a walk.
    for (std::size_t i = 0; i < pending.size(); ++i)
      positions_[i] = inst.positions(pending[i]).new_pos;
  }

  // Tries to retire all pending nodes in <= budget rounds; on success
  // chosen_rounds() returns the rounds in order.
  bool solve(std::uint64_t remaining_mask, std::size_t budget) {
    if (remaining_mask == 0) return true;
    if (budget == 0) return false;
    if (failed_[remaining_mask] >= budget) return false;

    // Enumerate non-empty subsets of remaining_mask as the next round.
    const std::uint64_t done = all_mask() & ~remaining_mask;
    for (std::uint64_t sub = remaining_mask; sub != 0;
         sub = (sub - 1) & remaining_mask) {
      if (!round_ok(done, sub)) continue;
      rounds_[depth_++] = sub;
      if (solve(remaining_mask & ~sub, budget - 1)) return true;
      --depth_;
    }
    // A budget of popcount(remaining) rounds is as good as any larger one
    // (every round retires a node), so failing it proves infeasibility.
    const auto popcount =
        static_cast<std::size_t>(std::popcount(remaining_mask));
    const std::uint8_t proven =
        budget >= popcount ? kInfeasible : static_cast<std::uint8_t>(budget);
    failed_[remaining_mask] = std::max(failed_[remaining_mask], proven);
    return false;
  }

  std::uint64_t all_mask() const {
    return (std::uint64_t{1} << pending_.size()) - 1;
  }

  std::vector<Round> chosen_rounds() const {
    std::vector<Round> out;
    out.reserve(depth_);
    for (std::size_t r = 0; r < depth_; ++r) {
      Round& round = out.emplace_back();
      for (std::size_t i = 0; i < pending_.size(); ++i)
        if ((rounds_[r] >> i) & 1ULL) round.push_back(pending_[i]);
    }
    return out;
  }

 private:
  static constexpr std::uint8_t kInfeasible = 0xff;
  static constexpr std::uint64_t kUnknown = 0;
  static constexpr std::uint64_t kSafe = 1;
  static constexpr std::uint64_t kUnsafe = 2;

  // Round `sub` on top of `done` is safe iff every state done ∪ s, s ⊆ sub,
  // is safe.
  bool round_ok(std::uint64_t done, std::uint64_t sub) {
    for (std::uint64_t s = sub;; s = (s - 1) & sub) {
      if (!state_ok(done | s)) return false;
      if (s == 0) return true;
    }
  }

  // Memoized verdict of the state initial ∪ pending[mask].
  bool state_ok(std::uint64_t mask) {
    std::uint64_t& word = verdicts_[mask / 32];
    const unsigned shift = static_cast<unsigned>(mask % 32) * 2;
    std::uint64_t verdict = (word >> shift) & 3;
    if (verdict == kUnknown) {
      for (std::uint64_t diff = mask ^ loaded_; diff != 0; diff &= diff - 1) {
        const auto i = static_cast<std::size_t>(std::countr_zero(diff));
        const std::uint32_t p = positions_[i];
        if (p != Instance::kNoPosition)
          state_.assign(p, ((mask >> i) & 1ULL) != 0 || initial_.test(p));
      }
      loaded_ = mask;
      verdict = state_satisfies(inst_, state_, properties_) ? kSafe : kUnsafe;
      word |= verdict << shift;
    }
    return verdict == kSafe;
  }

  const Instance& inst_;
  const PositionMask& initial_;
  const std::vector<NodeId>& pending_;
  std::uint32_t properties_;
  // New-path position of each pending node (kNoPosition: off the path).
  std::array<std::uint32_t, kMaxPending> positions_{};
  // The state last evaluated: initial ∪ pending[loaded_].
  PositionMask state_;
  std::uint64_t loaded_ = 0;
  // 2-bit verdict per mask: kUnknown, kSafe or kUnsafe.
  std::vector<std::uint64_t> verdicts_;
  // remaining_mask -> largest budget proven infeasible (kInfeasible: any).
  std::vector<std::uint8_t> failed_;
  // The DFS path: round masks in order.
  std::array<std::uint64_t, kMaxPending> rounds_{};
  std::size_t depth_ = 0;
};

}  // namespace

Result<std::vector<Round>> search_rounds(const Instance& inst,
                                         const StateMask& initial,
                                         const std::vector<NodeId>& pending,
                                         std::uint32_t properties,
                                         std::size_t max_rounds,
                                         const OracleOptions& oracle) {
  return search_rounds(inst, positions_of(inst, initial), pending, properties,
                       max_rounds, oracle);
}

Result<std::vector<Round>> search_rounds(const Instance& inst,
                                         const PositionMask& initial,
                                         const std::vector<NodeId>& pending,
                                         std::uint32_t properties,
                                         std::size_t max_rounds,
                                         const OracleOptions& /*oracle*/) {
  if (pending.size() > kMaxPending)
    return make_error(Errc::kOutOfRange,
                      "search_rounds: too many pending nodes");
  if (pending.empty()) return std::vector<Round>{};

  // Every round retires a node, so budgets past pending.size() add nothing.
  RoundSearch search(inst, initial, pending, properties);
  const std::size_t budgets = std::min(max_rounds, pending.size());
  for (std::size_t budget = 1; budget <= budgets; ++budget)
    if (search.solve(search.all_mask(), budget)) return search.chosen_rounds();
  return make_error(Errc::kExhausted,
                    "no schedule within max_rounds satisfies " +
                        property_name(properties));
}

Result<Schedule> plan_optimal(const Instance& inst,
                              const OptimalOptions& options) {
  if (inst.touched().size() > options.node_limit)
    return make_error(Errc::kOutOfRange,
                      "plan_optimal: instance exceeds node_limit (" +
                          std::to_string(inst.touched().size()) + " touched)");
  Result<std::vector<Round>> rounds =
      search_rounds(inst, empty_state(inst), inst.touched(),
                    options.properties, options.max_rounds,
                    options.base.oracle);
  if (!rounds.ok()) return rounds.error();
  Schedule schedule;
  schedule.algorithm = "optimal(" + property_name(options.properties) + ")";
  schedule.rounds = std::move(rounds).value();
  if (options.base.with_cleanup) schedule.cleanup = inst.old_only_nodes();
  return schedule;
}

}  // namespace tsu::update
