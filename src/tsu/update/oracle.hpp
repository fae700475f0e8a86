// Transient-consistency properties and the round-safety oracles used both
// by the schedulers (to build rounds) and by the checker (to verify them).
//
// Property semantics over a single transient state S (see the README section
// "Update semantics and the planner/checker kernel"):
//   kWaypoint       : the walk from s must not reach d without visiting w.
//   kLoopFree       : the walk from s must not enter a cycle (weak/relaxed
//                     loop freedom of Peacock - stale loops off the live
//                     path are tolerated).
//   kGlobalLoopFree : the functional graph of ALL active rules is acyclic
//                     (strong loop freedom).
//   kBlackholeFree  : the walk from s never reaches a rule-less node.
// A round R is safe on top of applied set A iff every state A ∪ S with
// S ⊆ R satisfies the property mask.
#pragma once

#include <cstdint>
#include <vector>

#include "tsu/update/forwarding.hpp"
#include "tsu/update/instance.hpp"

namespace tsu::update {

enum PropertyMask : std::uint32_t {
  kWaypoint = 1u << 0,
  kLoopFree = 1u << 1,
  kGlobalLoopFree = 1u << 2,
  kBlackholeFree = 1u << 3,
};

// Common combinations.
inline constexpr std::uint32_t kWayUpGuarantee = kWaypoint;
inline constexpr std::uint32_t kPeacockGuarantee = kLoopFree | kBlackholeFree;
inline constexpr std::uint32_t kSlfGuarantee =
    kGlobalLoopFree | kBlackholeFree;
inline constexpr std::uint32_t kTransientlySecure =
    kWaypoint | kLoopFree | kBlackholeFree;

std::string property_name(std::uint32_t mask);

// Evaluates the property mask on one concrete state. Returns true if all
// requested properties hold. Allocation-free unless kGlobalLoopFree is
// requested (that one builds the active graph).
bool state_satisfies(const Instance& inst, const StateMask& state,
                     std::uint32_t properties);

struct OracleOptions {
  // Rounds up to this size are checked by exhaustive subset enumeration
  // (2^size states); larger rounds fall back to the union-graph certificate
  // plus Monte-Carlo subset sampling.
  std::size_t exhaustive_limit = 16;
  std::size_t monte_carlo_samples = 512;
  std::uint64_t monte_carlo_seed = 0x7b1e4d2cULL;
};

// Sound-but-incomplete certificate: checks the property mask on the
// adversarial union graph (applied -> new rule, round -> both rules). If it
// returns true, every subset state satisfies the mask. If it returns false,
// a violation is *possible* but not guaranteed.
bool round_safe_union_certificate(const Instance& inst,
                                  const StateMask& applied,
                                  const std::vector<NodeId>& round,
                                  std::uint32_t properties);

// Exact check by enumerating all 2^|round| subsets. Requires
// round.size() <= 63 and is only sensible for small rounds.
bool round_safe_exhaustive(const Instance& inst, const StateMask& applied,
                           const std::vector<NodeId>& round,
                           std::uint32_t properties);

// Dispatcher: exhaustive when small, otherwise union certificate (sound)
// OR-ed with sampling - i.e. for large rounds a `true` answer is certified
// by the union graph, a `false` answer may come from either test.
bool round_safe(const Instance& inst, const StateMask& applied,
                const std::vector<NodeId>& round, std::uint32_t properties,
                const OracleOptions& options = {});

}  // namespace tsu::update
