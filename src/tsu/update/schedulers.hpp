// The update schedulers (see the README section "Update semantics and the planner/checker kernel").
//
//   plan_oneshot    - all FlowMods in a single round; what a plain
//                     `ofctl_rest.py` controller does. Baseline.
//   plan_twophase   - strawman "prefix round then suffix round" split around
//                     the waypoint; shows why naive phasing is insufficient.
//   plan_wayup      - the WayUp reconstruction: <= 4 rounds, guarantees
//                     waypoint enforcement (WPE) in every transient state.
//   plan_peacock    - the Peacock reconstruction: guarantees weak loop
//                     freedom (WLF); few rounds (forward edges together,
//                     backward edges retired greedily under the oracle).
//   plan_slf_greedy - strong-loop-freedom greedy baseline; Θ(n) rounds on
//                     reversal instances (the contrast PODC'15 draws).
//   plan_optimal    - exhaustive minimum-round search for a property mask;
//                     exponential, intended for small instances (tests and
//                     the E5 ablation bench).
//
// All schedulers return rounds that partition Instance::touched(), and fill
// Schedule::cleanup with the old-only nodes when options request it.
#pragma once

#include <cstdint>

#include "tsu/update/instance.hpp"
#include "tsu/update/oracle.hpp"
#include "tsu/update/schedule.hpp"
#include "tsu/util/status.hpp"

namespace tsu::update {

struct SchedulerOptions {
  bool with_cleanup = true;
  OracleOptions oracle;
};

Result<Schedule> plan_oneshot(const Instance& inst,
                              const SchedulerOptions& options = {});

// Requires a waypoint.
Result<Schedule> plan_twophase(const Instance& inst,
                               const SchedulerOptions& options = {});

// Requires a waypoint.
Result<Schedule> plan_wayup(const Instance& inst,
                            const SchedulerOptions& options = {});

struct PeacockOptions {
  SchedulerOptions base;
  // When the greedy round construction cannot place any pending node, fall
  // back to an exhaustive search over round choices (feasible for small
  // instances) instead of failing.
  bool search_fallback = true;
  std::size_t search_node_limit = 20;
};

Result<Schedule> plan_peacock(const Instance& inst,
                              const PeacockOptions& options = {});

Result<Schedule> plan_slf_greedy(const Instance& inst,
                                 const SchedulerOptions& options = {});

// Joint waypoint enforcement + relaxed loop freedom + blackhole freedom -
// the "transiently secure" combination of the paper's reference [3]
// (SIGMETRICS'16). Not every instance admits such a schedule (the paper's
// own Figure 1 scenario does not); infeasibility is reported as kExhausted
// after an exact search on small instances.
struct SecureOptions {
  SchedulerOptions base;
  bool search_fallback = true;
  std::size_t search_node_limit = 14;
};

Result<Schedule> plan_secure(const Instance& inst,
                             const SecureOptions& options = {});

struct OptimalOptions {
  SchedulerOptions base;
  std::uint32_t properties = kPeacockGuarantee;
  std::size_t max_rounds = 8;
  // Refuse instances with more touched nodes than this (search is
  // exponential in the touched count).
  std::size_t node_limit = 16;
};

Result<Schedule> plan_optimal(const Instance& inst,
                              const OptimalOptions& options = {});

// Building block shared by plan_optimal and Peacock's fallback: exhaustive
// iterative-deepening search for the minimum number of safe rounds that
// retire `pending` starting from `initial`. Exponential in pending.size().
Result<std::vector<Round>> search_rounds(const Instance& inst,
                                         const StateMask& initial,
                                         const std::vector<NodeId>& pending,
                                         std::uint32_t properties,
                                         std::size_t max_rounds,
                                         const OracleOptions& oracle);
Result<std::vector<Round>> search_rounds(const Instance& inst,
                                         const PositionMask& initial,
                                         const std::vector<NodeId>& pending,
                                         std::uint32_t properties,
                                         std::size_t max_rounds,
                                         const OracleOptions& oracle);

}  // namespace tsu::update
