#include "tsu/verify/checker.hpp"

#include <algorithm>
#include <sstream>

#include "tsu/graph/algorithms.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::verify {

namespace {

// Property bits that fail on a single concrete state, judged trace-free.
std::uint32_t violated_bits(const update::Instance& inst,
                            const update::StateMask& state,
                            std::uint32_t properties) {
  using update::WalkOutcome;
  std::uint32_t failed = 0;
  const update::WalkVerdict walk = update::walk_verdict(inst, state);
  if ((properties & update::kWaypoint) != 0 && inst.has_waypoint() &&
      walk.outcome == WalkOutcome::kDelivered && !walk.visited_waypoint)
    failed |= update::kWaypoint;
  if ((properties & update::kLoopFree) != 0 &&
      walk.outcome == WalkOutcome::kLoop)
    failed |= update::kLoopFree;
  if ((properties & update::kBlackholeFree) != 0 &&
      walk.outcome == WalkOutcome::kBlackhole)
    failed |= update::kBlackholeFree;
  if ((properties & update::kGlobalLoopFree) != 0 &&
      !graph::is_acyclic(update::active_graph(inst, state)))
    failed |= update::kGlobalLoopFree;
  return failed;
}

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

  std::vector<NodeId> subset = violation.subset;
  update::StateMask state = applied;
  const auto violates = [&](const std::vector<NodeId>& nodes) {
    state = applied;
    for (const NodeId v : nodes) state[v] = true;
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
  state = applied;
  for (const NodeId v : subset) state[v] = true;
  minimal.violated = violated_bits(inst, state, properties);
  minimal.walk = update::walk_from_source(inst, state);
  return minimal;
}

CheckReport check_schedule(const update::Instance& inst,
                           const update::Schedule& schedule,
                           std::uint32_t properties,
                           const CheckOptions& options) {
  CheckReport report;
  report.exhaustive = true;

  update::StateMask applied = update::empty_state(inst);
  update::StateMask state = applied;
  Rng rng(options.monte_carlo_seed);

  // States are judged trace-free; only a recorded violation re-walks the
  // failing state for its witness trace.
  const auto check_state = [&](std::size_t round_index,
                               const std::vector<NodeId>& round,
                               std::uint64_t bits) {
    ++report.states_checked;
    const std::uint32_t failed = violated_bits(inst, state, properties);
    if (failed == 0 || report.violations.size() >= options.max_violations)
      return;
    Violation v;
    v.violated = failed;
    v.round_index = round_index;
    for (std::size_t i = 0; i < round.size(); ++i)
      if ((bits >> i) & 1ULL) v.subset.push_back(round[i]);
    v.walk = update::walk_from_source(inst, state);
    report.violations.push_back(std::move(v));
  };

  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const update::Round& round = schedule.rounds[r];
    if (round.size() <= options.exhaustive_limit) {
      const std::uint64_t subsets = 1ULL << round.size();
      for (std::uint64_t bits = 0; bits < subsets; ++bits) {
        for (std::size_t i = 0; i < round.size(); ++i)
          state[round[i]] = applied[round[i]] || ((bits >> i) & 1ULL) != 0;
        check_state(r, round, bits);
      }
      // Restore `state` to `applied` for the next round's enumeration base.
      for (const NodeId v : round) state[v] = applied[v];
    } else {
      report.exhaustive = false;
      for (std::size_t sample = 0; sample < options.monte_carlo_samples;
           ++sample) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < round.size(); ++i) {
          const bool on = rng.bernoulli(0.5);
          if (i < 64 && on) bits |= 1ULL << i;
          state[round[i]] = applied[round[i]] || on;
        }
        check_state(r, round, bits);
      }
      for (const NodeId v : round) state[v] = applied[v];
    }
    // Commit the round.
    for (const NodeId v : round) {
      applied[v] = true;
      state[v] = true;
    }
  }

  if (options.check_final_state || options.check_cleanup) {
    const update::WalkResult walk =
        update::walk_from_source(inst, update::full_state(inst));
    const bool delivered =
        walk.outcome == update::WalkOutcome::kDelivered &&
        walk.trace == inst.new_path();
    if (options.check_final_state && !delivered) {
      Violation v;
      v.violated = properties;
      v.round_index =
          schedule.rounds.empty() ? 0 : schedule.rounds.size() - 1;
      v.walk = walk;
      report.violations.push_back(std::move(v));
    }
    // Cleanup deletes rules; it is safe iff the deleted nodes are
    // unreachable from the source in the final state. Every node has at
    // most one active rule, so the nodes reachable from the source are
    // exactly the nodes of its walk.
    if (options.check_cleanup) {
      for (const NodeId v : schedule.cleanup) {
        if (std::find(walk.trace.begin(), walk.trace.end(), v) ==
            walk.trace.end())
          continue;
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
