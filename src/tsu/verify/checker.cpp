#include "tsu/verify/checker.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "tsu/graph/algorithms.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::verify {

namespace {

using update::PositionMask;

std::uint32_t violated_bits(const update::Instance& inst,
                            const update::StateMask& state,
                            std::uint32_t properties) {
  return update::violated_bits(inst, update::positions_of(inst, state),
                               properties);
}

// Whether the final state's walk follows the new path, checked without
// tracing it. Every new-path node but the destination forwards along the
// new path there: a touched node has updated, and an untouched one keeps an
// old rule with the same next hop. So this holds for every valid instance.
bool final_walk_follows_new_path(const update::Instance& inst) {
  const graph::Path& path = inst.new_path();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId v = path[i];
    const NodeId next = inst.is_touched(v) ? inst.new_next(v)
                                           : inst.old_next(v);
    if (next != path[i + 1]) return false;
  }
  return true;
}

// One violating state of a round: its subset bits and failed properties.
struct Found {
  std::uint64_t bits = 0;
  std::uint32_t failed = 0;
};

// Keeps the `limit` violating states of a round with the smallest subset
// bits - the ones a state-by-state enumeration would record first - while
// the walk tree reports violating leaves in depth-first order.
class FirstViolations {
 public:
  explicit FirstViolations(std::size_t limit) : limit_(limit) {}

  // Offers every state of the cube `fixed_bits` on `fixed_mask` (the other
  // bits of `all` free), in increasing order until they cannot make the cut.
  void offer(std::uint64_t fixed_mask, std::uint64_t fixed_bits,
             std::uint64_t all, std::uint32_t failed) {
    const std::uint64_t free = all & ~fixed_mask;
    std::uint64_t sub = 0;
    do {
      const std::uint64_t bits = fixed_bits | sub;
      if (found_.size() == limit_ && bits >= found_.back().bits) return;
      const auto at = std::upper_bound(
          found_.begin(), found_.end(), bits,
          [](std::uint64_t b, const Found& f) { return b < f.bits; });
      found_.insert(at, Found{bits, failed});
      if (found_.size() > limit_) found_.pop_back();
      sub = (sub - free) & free;  // next subset of `free` in increasing order
    } while (sub != 0);
  }

  const std::vector<Found>& found() const { return found_; }

 private:
  std::size_t limit_;
  std::vector<Found> found_;
};

}  // namespace

std::string Violation::to_string() const {
  std::ostringstream out;
  out << "round " << (round_index + 1) << " violates "
      << update::property_name(violated) << " with in-flight subset {";
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (i != 0) out << ",";
    out << subset[i];
  }
  out << "}: " << walk.to_string();
  return out.str();
}

std::string CheckReport::to_string() const {
  std::ostringstream out;
  out << (ok ? "OK" : "VIOLATED") << " (" << states_checked << " states, "
      << (exhaustive ? "exhaustive" : "sampled") << ")";
  for (const Violation& v : violations) out << "\n  " << v.to_string();
  return out.str();
}

bool state_ok(const update::Instance& inst, const update::StateMask& state,
              std::uint32_t properties) {
  return violated_bits(inst, state, properties) == 0;
}

Violation minimize_violation(const update::Instance& inst,
                             const update::Schedule& schedule,
                             const Violation& violation,
                             std::uint32_t properties) {
  const update::StateMask applied =
      update::state_after_rounds(inst, schedule, violation.round_index);

  // A node past node_count() holds no rule, so it never changes a walk.
  std::vector<NodeId> subset = violation.subset;
  update::StateMask state = applied;
  const auto load = [&](const std::vector<NodeId>& nodes) {
    state = applied;
    for (const NodeId v : nodes)
      if (v < state.size()) state[v] = true;
  };
  const auto violates = [&](const std::vector<NodeId>& nodes) {
    load(nodes);
    return violated_bits(inst, state, properties) != 0;
  };

  // Greedy deletion until locally minimal: every remaining node is needed.
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < subset.size(); ++i) {
      std::vector<NodeId> candidate = subset;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (violates(candidate)) {
        subset = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }

  Violation minimal = violation;
  minimal.subset = subset;
  load(subset);
  minimal.violated = violated_bits(inst, state, properties);
  minimal.walk = update::walk_from_source(inst, state);
  return minimal;
}

CheckReport check_schedule(const update::Instance& inst,
                           const update::Schedule& schedule,
                           std::uint32_t properties,
                           const CheckOptions& options) {
  constexpr std::uint32_t kNone = update::Instance::kNoPosition;
  CheckReport report;
  report.exhaustive = true;

  // States are position masks; a scheduled node off the new path (or past
  // node_count()) never changes a walk, so it only doubles the states.
  PositionMask applied(inst.new_path().size());
  PositionMask state = applied;
  Rng rng(options.monte_carlo_seed);
  const auto position = [&](NodeId v) { return inst.positions(v).new_pos; };

  // States are judged trace-free; only a recorded violation re-walks the
  // failing state for its witness trace. The subset bits hold a round's
  // first 64 nodes (a sampled round may list more).
  const auto record = [&](std::size_t round_index,
                          const std::vector<NodeId>& round, std::uint64_t bits,
                          std::uint32_t failed) {
    Violation v;
    v.violated = failed;
    v.round_index = round_index;
    for (std::size_t i = 0; i < round.size() && i < 64; ++i)
      if ((bits >> i) & 1ULL) v.subset.push_back(round[i]);
    v.walk = update::walk_from_source(inst, state);
    report.violations.push_back(std::move(v));
  };
  const auto check_state = [&](std::size_t round_index,
                               const std::vector<NodeId>& round,
                               std::uint64_t bits) {
    ++report.states_checked;
    const std::uint32_t failed = update::violated_bits(inst, state, properties);
    if (failed == 0 || report.violations.size() >= options.max_violations)
      return;
    record(round_index, round, bits, failed);
  };
  // Loads applied ∪ {round[i] : bit i of `bits`} into `state`; a node
  // listed twice takes its last bit.
  const auto load = [&](const std::vector<NodeId>& round, std::uint64_t bits) {
    state = applied;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const std::uint32_t p = position(round[i]);
      if (p != kNone) state.assign(p, applied.test(p) || ((bits >> i) & 1ULL));
    }
  };

  // One walk tree per round (README, "The walk tree"): a leaf at depth k
  // stands for 2^(|round| - k) states. Strong loop freedom reads every rule
  // rather than one walk, so a mask with it is judged state by state.
  const auto check_tree = [&](std::size_t r, const std::vector<NodeId>& round) {
    const std::uint64_t all =
        round.size() >= 64 ? ~0ULL : (1ULL << round.size()) - 1;
    const std::size_t slots =
        options.max_violations > report.violations.size()
            ? options.max_violations - report.violations.size()
            : 0;
    FirstViolations first(slots);
    PositionMask open = update::open_positions(inst, applied, round);
    const PositionMask open_before = open;
    state = applied;
    update::walk_tree(
        inst, state, open,
        [&](const update::WalkVerdict& walk, std::size_t depth) {
          report.states_checked += 1ULL << (round.size() - depth);
          const std::uint32_t failed =
              update::walk_violations(inst, walk, properties);
          if (failed == 0 || slots == 0) return true;
          // The leaf's cube: the last listing of each decided node is fixed.
          std::uint64_t fixed_mask = 0;
          std::uint64_t fixed_bits = 0;
          for (std::size_t i = 0; i < round.size(); ++i) {
            const std::uint32_t p = position(round[i]);
            if (p == kNone || !open_before.test(p) || open.test(p)) continue;
            if (std::find(round.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                          round.end(), round[i]) != round.end())
              continue;
            fixed_mask |= 1ULL << i;
            if (state.test(p)) fixed_bits |= 1ULL << i;
          }
          first.offer(fixed_mask, fixed_bits, all, failed);
          return true;
        });
    for (const Found& found : first.found()) {
      load(round, found.bits);
      record(r, round, found.bits, found.failed);
    }
  };

  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const update::Round& round = schedule.rounds[r];
    if (round.size() <= options.exhaustive_limit) {
      if ((properties & update::kGlobalLoopFree) == 0) {
        check_tree(r, round);
      } else {
        const std::uint64_t subsets = 1ULL << round.size();
        for (std::uint64_t bits = 0; bits < subsets; ++bits) {
          load(round, bits);
          check_state(r, round, bits);
        }
      }
    } else {
      report.exhaustive = false;
      for (std::size_t sample = 0; sample < options.monte_carlo_samples;
           ++sample) {
        state = applied;
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < round.size(); ++i) {
          const bool on = rng.bernoulli(0.5);
          if (i < 64 && on) bits |= 1ULL << i;
          const std::uint32_t p = position(round[i]);
          if (p != kNone) state.assign(p, applied.test(p) || on);
        }
        check_state(r, round, bits);
      }
    }
    // Commit the round.
    for (const NodeId v : round)
      if (position(v) != kNone) applied.set(position(v));
  }

  if (options.check_final_state || options.check_cleanup) {
    // The final state's walk is traced only when it leaves the new path;
    // on the new path, the nodes it reaches are the new path's.
    std::optional<update::WalkResult> off_path;
    if (!final_walk_follows_new_path(inst))
      off_path = update::walk_from_source(inst, update::full_state(inst));
    if (options.check_final_state && off_path.has_value()) {
      Violation v;
      v.violated = properties;
      v.round_index =
          schedule.rounds.empty() ? 0 : schedule.rounds.size() - 1;
      v.walk = *off_path;
      report.violations.push_back(std::move(v));
    }
    // Cleanup deletes rules; it is safe iff the deleted nodes are
    // unreachable from the source in the final state. Every node has at
    // most one active rule, so the nodes reachable from the source are
    // exactly the nodes of its walk.
    if (options.check_cleanup) {
      for (const NodeId v : schedule.cleanup) {
        const bool reached =
            off_path.has_value()
                ? std::find(off_path->trace.begin(), off_path->trace.end(),
                            v) != off_path->trace.end()
                : inst.on_new(v);
        if (!reached) continue;
        Violation viol;
        viol.violated = update::kBlackholeFree;
        viol.round_index = schedule.rounds.size();
        viol.subset = {v};
        report.violations.push_back(std::move(viol));
      }
    }
  }

  report.ok = report.violations.empty();
  return report;
}

}  // namespace tsu::verify
