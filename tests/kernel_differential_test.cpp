// Differential suite for the planner/checker kernel. Position masks and
// the walk tree (one walk per distinct decision, leaves standing for every
// state that agrees with them) must reach exactly the answers of a
// reference, kept in this file only, that judges each of a round's 2^|R|
// subset states on its own with walk_from_source and active_graph.
//
// Inputs: random instances (interior 3-12, with and without a waypoint,
// every other one relabelled onto node ids above 64) and
// reversal_instance(70), whose new path is longer than 64 positions.
// Cases: every round of every planner's schedule, and random rounds on
// random applied sets (with repeated, old-only and out-of-instance nodes),
// under every property mask. Checked: the round verdicts of
// round_safe_exhaustive and round_safe_with, and every check_schedule
// report - states_checked, and each violation's order, properties, subset
// and witness walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "tsu/graph/algorithms.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/verify/checker.hpp"

namespace tsu {
namespace {

using update::Instance;
using update::Round;
using update::Schedule;
using update::StateMask;
using update::WalkOutcome;
using update::WalkResult;

// ------------------------------------------------------------- reference --

std::uint32_t reference_bits(const Instance& inst, const StateMask& state,
                             std::uint32_t properties) {
  const WalkResult walk = update::walk_from_source(inst, state);
  std::uint32_t failed = 0;
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

// applied ∪ {round[i] : bit i of bits}. A node listed twice takes its last
// bit; a node past node_count() holds no rule and is skipped.
StateMask subset_state(const StateMask& applied, const Round& round,
                       std::uint64_t bits) {
  StateMask state = applied;
  for (std::size_t i = 0; i < round.size(); ++i)
    if (round[i] < state.size())
      state[round[i]] = applied[round[i]] || ((bits >> i) & 1ULL) != 0;
  return state;
}

constexpr std::uint32_t kMaskCount = 16;  // every subset of the 4 bits
constexpr std::uint32_t kAllProperties = kMaskCount - 1;

// Bit m is set when round R on top of `applied` is unsafe under mask m. A
// state's verdict on every bit is independent of the others, so one pass
// over the states answers all 16 masks.
std::uint32_t reference_unsafe_masks(const Instance& inst,
                                     const StateMask& applied,
                                     const Round& round) {
  std::uint32_t seen = 0;  // bit b: some state fails exactly the bits b
  for (std::uint64_t bits = 0; bits < (1ULL << round.size()); ++bits)
    seen |= 1u << reference_bits(inst, subset_state(applied, round, bits),
                                 kAllProperties);
  std::uint32_t unsafe = 0;
  for (std::uint32_t mask = 0; mask < kMaskCount; ++mask)
    for (std::uint32_t b = 0; b < kMaskCount; ++b)
      if (((seen >> b) & 1u) != 0 && (b & mask) != 0) unsafe |= 1u << mask;
  return unsafe;
}

// check_schedule's contract, one state at a time, for all 16 masks in one
// pass: the sampled states do not depend on the mask.
std::array<verify::CheckReport, kMaskCount> reference_checks(
    const Instance& inst, const Schedule& schedule,
    const verify::CheckOptions& options) {
  std::array<verify::CheckReport, kMaskCount> reports;
  for (verify::CheckReport& report : reports) report.exhaustive = true;
  StateMask applied = update::empty_state(inst);
  Rng rng(options.monte_carlo_seed);
  const auto judge = [&](std::size_t r, const Round& round, std::uint64_t bits,
                         const StateMask& state) {
    const std::uint32_t all = reference_bits(inst, state, kAllProperties);
    std::optional<WalkResult> walk;
    for (std::uint32_t mask = 0; mask < kMaskCount; ++mask) {
      verify::CheckReport& report = reports[mask];
      ++report.states_checked;
      const std::uint32_t failed = all & mask;
      if (failed == 0 || report.violations.size() >= options.max_violations)
        continue;
      if (!walk.has_value()) walk = update::walk_from_source(inst, state);
      verify::Violation v;
      v.violated = failed;
      v.round_index = r;
      for (std::size_t i = 0; i < round.size() && i < 64; ++i)
        if ((bits >> i) & 1ULL) v.subset.push_back(round[i]);
      v.walk = *walk;
      report.violations.push_back(std::move(v));
    }
  };
  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const Round& round = schedule.rounds[r];
    if (round.size() <= options.exhaustive_limit) {
      for (std::uint64_t bits = 0; bits < (1ULL << round.size()); ++bits)
        judge(r, round, bits, subset_state(applied, round, bits));
    } else {
      for (verify::CheckReport& report : reports) report.exhaustive = false;
      for (std::size_t s = 0; s < options.monte_carlo_samples; ++s) {
        StateMask state = applied;
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < round.size(); ++i) {
          const bool on = rng.bernoulli(0.5);
          if (i < 64 && on) bits |= 1ULL << i;
          if (round[i] < state.size())
            state[round[i]] = applied[round[i]] || on;
        }
        judge(r, round, bits, state);
      }
    }
    for (const NodeId v : round)
      if (v < applied.size()) applied[v] = true;
  }
  const WalkResult walk =
      update::walk_from_source(inst, update::full_state(inst));
  for (std::uint32_t mask = 0; mask < kMaskCount; ++mask) {
    verify::CheckReport& report = reports[mask];
    if (options.check_final_state &&
        !(walk.outcome == WalkOutcome::kDelivered &&
          walk.trace == inst.new_path())) {
      verify::Violation v;
      v.violated = mask;
      v.round_index =
          schedule.rounds.empty() ? 0 : schedule.rounds.size() - 1;
      v.walk = walk;
      report.violations.push_back(std::move(v));
    }
    if (options.check_cleanup) {
      for (const NodeId v : schedule.cleanup) {
        if (std::find(walk.trace.begin(), walk.trace.end(), v) ==
            walk.trace.end())
          continue;
        verify::Violation viol;
        viol.violated = update::kBlackholeFree;
        viol.round_index = schedule.rounds.size();
        viol.subset = {v};
        report.violations.push_back(std::move(viol));
      }
    }
    report.ok = report.violations.empty();
  }
  return reports;
}

// The first difference between two reports, or "" when they are equal.
std::string report_diff(const verify::CheckReport& got,
                        const verify::CheckReport& want) {
  std::ostringstream out;
  if (got.ok != want.ok) out << "ok " << got.ok << " vs " << want.ok;
  else if (got.exhaustive != want.exhaustive) out << "exhaustive differs";
  else if (got.states_checked != want.states_checked)
    out << "states " << got.states_checked << " vs " << want.states_checked;
  else if (got.violations.size() != want.violations.size())
    out << "violations " << got.violations.size() << " vs "
        << want.violations.size();
  for (std::size_t i = 0; out.str().empty() && i < got.violations.size();
       ++i) {
    const verify::Violation& g = got.violations[i];
    const verify::Violation& w = want.violations[i];
    if (g.violated != w.violated || g.round_index != w.round_index ||
        g.subset != w.subset || g.walk.outcome != w.walk.outcome ||
        g.walk.trace != w.walk.trace ||
        g.walk.visited_waypoint != w.walk.visited_waypoint)
      out << "violation " << i << ": " << g.to_string() << " vs "
          << w.to_string();
  }
  if (!out.str().empty()) out << "\n  got  " << got.to_string();
  return out.str();
}

// ---------------------------------------------------------------- inputs --

// Node v becomes 65 + 3v: ids above 64, with gaps no path uses.
Instance relabelled(const Instance& inst) {
  const auto map = [](NodeId v) { return static_cast<NodeId>(65 + 3 * v); };
  graph::Path old_path;
  graph::Path new_path;
  for (const NodeId v : inst.old_path()) old_path.push_back(map(v));
  for (const NodeId v : inst.new_path()) new_path.push_back(map(v));
  std::optional<NodeId> waypoint;
  if (inst.has_waypoint()) waypoint = map(*inst.waypoint());
  return std::move(Instance::make(old_path, new_path, waypoint)).value();
}

std::vector<Instance> random_instances(std::size_t count) {
  Rng rng(0xd1ff);
  std::vector<Instance> out;
  for (std::size_t n = 0; n < count; ++n) {
    topo::RandomInstanceOptions options;
    options.old_interior_min = 3;
    options.old_interior_max = 12;
    options.new_len_min = 3;
    options.new_len_max = 12;
    options.with_waypoint = n % 2 == 0;
    Instance inst = topo::random_instance(rng, options);
    out.push_back(n % 4 < 2 ? std::move(inst) : relabelled(inst));
  }
  return out;
}

std::vector<Schedule> planner_schedules(const Instance& inst) {
  std::vector<Result<Schedule>> planned;
  planned.push_back(update::plan_oneshot(inst));
  planned.push_back(update::plan_peacock(inst));
  planned.push_back(update::plan_slf_greedy(inst));
  if (inst.has_waypoint()) {
    planned.push_back(update::plan_twophase(inst));
    planned.push_back(update::plan_wayup(inst));
    planned.push_back(update::plan_secure(inst));
  }
  if (inst.touched().size() <= 10) {
    update::OptimalOptions optimal;
    optimal.properties = update::kPeacockGuarantee;
    planned.push_back(update::plan_optimal(inst, optimal));
  }
  std::vector<Schedule> out;
  for (Result<Schedule>& s : planned)
    if (s.ok()) out.push_back(std::move(s).value());
  return out;
}

// Two checker settings: the defaults, and a small exhaustive limit (sampled
// rounds) with a violation cap that cuts rounds short.
verify::CheckOptions check_options(std::size_t n) {
  verify::CheckOptions options;
  if (n % 3 == 2) {
    options.exhaustive_limit = 6;
    options.monte_carlo_samples = 64;
    options.max_violations = 3;
  }
  return options;
}

// A random round on a random applied set: applied nodes, old-only nodes,
// repeats and a node past node_count() ride along now and then.
struct RandomRound {
  StateMask applied;
  Round round;
};

RandomRound random_round(Rng& rng, const Instance& inst,
                         std::size_t max_size) {
  RandomRound out{update::empty_state(inst), {}};
  std::vector<NodeId> free;
  for (const NodeId v : inst.touched()) {
    if (rng.bernoulli(0.35))
      out.applied[v] = true;
    else
      free.push_back(v);
  }
  for (const NodeId v : free)
    if (out.round.size() < max_size && rng.bernoulli(0.5))
      out.round.push_back(v);
  const auto extra = [&](NodeId v) {
    if (out.round.size() < max_size && rng.bernoulli(0.2))
      out.round.insert(
          out.round.begin() +
              static_cast<std::ptrdiff_t>(rng.uniform_u64(0, out.round.size())),
          v);
  };
  if (!out.round.empty()) extra(rng.pick(out.round));
  for (const NodeId v : inst.old_path())
    if (!inst.on_new(v)) extra(v);
  extra(static_cast<NodeId>(inst.node_count() + 7));
  for (NodeId v = 0; v < out.applied.size(); ++v)
    if (out.applied[v]) extra(v);
  return out;
}

// Round verdicts of one random round under every mask: round_safe_exhaustive
// on the whole round, and round_safe_with for every node offered to a
// proven-safe prefix, as the greedy planners offer it. Returns how many
// masks found the whole round unsafe.
std::size_t expect_round_verdicts(const Instance& inst,
                                  const RandomRound& rr) {
  std::map<Round, std::uint32_t> unsafe_masks;  // reference, per round
  const auto reference = [&](const Round& round, std::uint32_t mask) {
    auto [it, fresh] = unsafe_masks.try_emplace(round, 0);
    if (fresh) it->second = reference_unsafe_masks(inst, rr.applied, round);
    return ((it->second >> mask) & 1u) == 0;
  };
  const update::PositionMask landed = update::positions_of(inst, rr.applied);
  const update::OracleOptions oracle;
  std::size_t unsafe = 0;
  for (std::uint32_t mask = 0; mask < kMaskCount; ++mask) {
    const bool want = reference(rr.round, mask);
    EXPECT_EQ(update::round_safe_exhaustive(inst, rr.applied, rr.round, mask),
              want)
        << inst.to_string() << " mask " << mask;
    if (!want) ++unsafe;

    Round prefix;
    for (const NodeId u : rr.round) {
      const update::PositionMask open =
          update::open_positions(inst, landed, prefix);
      Round grown = prefix;
      grown.push_back(u);
      const bool grown_safe = reference(grown, mask);
      EXPECT_EQ(update::round_safe_with(inst, landed, prefix, open, u, mask,
                                        oracle),
                grown_safe)
          << inst.to_string() << " mask " << mask << " offering " << u;
      if (grown_safe) prefix = std::move(grown);
    }
  }
  return unsafe;
}

// Every check_schedule report on `schedule`, one per mask, against the
// reference's. Returns how many failed.
std::size_t expect_reports(const Instance& inst, const Schedule& schedule,
                           const verify::CheckOptions& options,
                           std::size_t* sampled = nullptr) {
  const std::array<verify::CheckReport, kMaskCount> want =
      reference_checks(inst, schedule, options);
  std::size_t failed = 0;
  for (std::uint32_t mask = 0; mask < kMaskCount; ++mask) {
    const verify::CheckReport got =
        verify::check_schedule(inst, schedule, mask, options);
    EXPECT_EQ(report_diff(got, want[mask]), "")
        << inst.to_string() << "\n  " << schedule.to_string() << " mask "
        << mask;
    if (!got.ok) ++failed;
    if (!got.exhaustive && sampled != nullptr) ++*sampled;
  }
  return failed;
}

// ----------------------------------------------------------------- tests --

TEST(KernelDifferentialTest, PlannerRoundsMatchTheReference) {
  const std::vector<Instance> instances = random_instances(32);
  std::size_t violating = 0;
  std::size_t sampled = 0;
  for (std::size_t n = 0; n < instances.size(); ++n) {
    const Instance& inst = instances[n];
    ASSERT_FALSE(HasFailure()) << "stopping at the first failing instance";
    for (const Schedule& schedule : planner_schedules(inst)) {
      violating += expect_reports(inst, schedule, check_options(n), &sampled);
      for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
        const StateMask applied =
            update::state_after_rounds(inst, schedule, r);
        const std::uint32_t unsafe =
            reference_unsafe_masks(inst, applied, schedule.rounds[r]);
        for (std::uint32_t mask = 0; mask < kMaskCount; ++mask)
          EXPECT_EQ(update::round_safe_exhaustive(inst, applied,
                                                  schedule.rounds[r], mask),
                    ((unsafe >> mask) & 1u) == 0)
              << inst.to_string() << " " << schedule.to_string()
              << " round " << r << " mask " << mask;
      }
    }
  }
  // The sweep must record violations and sample rounds, or it shows little.
  EXPECT_GT(violating, 100u);
  EXPECT_GT(sampled, 0u);
}

TEST(KernelDifferentialTest, RandomRoundsMatchTheReference) {
  const std::vector<Instance> instances = random_instances(48);
  Rng rng(0xf00d);
  std::size_t unsafe = 0;
  for (std::size_t n = 0; n < instances.size(); ++n) {
    const Instance& inst = instances[n];
    ASSERT_FALSE(HasFailure()) << "stopping at the first failing instance";
    for (int trial = 0; trial < 4; ++trial) {
      const RandomRound rr = random_round(rng, inst, 10);
      unsafe += expect_round_verdicts(inst, rr);
      // The applied set becomes a first round of its own.
      Schedule schedule;
      schedule.algorithm = "random";
      Round first;
      for (NodeId v = 0; v < rr.applied.size(); ++v)
        if (rr.applied[v]) first.push_back(v);
      if (!first.empty()) schedule.rounds.push_back(first);
      schedule.rounds.push_back(rr.round);
      expect_reports(inst, schedule, check_options(n));
    }
  }
  EXPECT_GT(unsafe, 100u);
}

TEST(KernelDifferentialTest, NewPathPastSixtyFourPositions) {
  // 70 positions: every mask spans two words, and the rounds below mix
  // positions from both.
  const Instance inst = topo::reversal_instance(70);
  ASSERT_EQ(inst.new_path().size(), 70u);
  Rng rng(0x70);
  std::size_t unsafe = 0;
  for (int trial = 0; trial < 24 && !HasFailure(); ++trial)
    unsafe += expect_round_verdicts(inst, random_round(rng, inst, 9));
  EXPECT_GT(unsafe, 0u);

  verify::CheckOptions options;
  options.monte_carlo_samples = 256;
  for (const Schedule& schedule : planner_schedules(inst))
    expect_reports(inst, schedule, options);
}

}  // namespace
}  // namespace tsu
