// Transient-state model checker.
//
// Ground truth for the whole repository: every scheduler's output is checked
// here, per round, against the per-subset asynchrony semantics (README,
// "Update semantics and the planner/checker kernel").
// For round R on top of applied set A, all 2^|R| states A ∪ S are enumerated
// (when |R| <= exhaustive_limit; Monte-Carlo sampling plus the sound
// union-graph certificate otherwise) and each is evaluated against the
// property mask. Violations carry the witness subset and the packet walk, so
// failures replay as concrete forwarding traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tsu/update/forwarding.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/update/oracle.hpp"
#include "tsu/update/schedule.hpp"

namespace tsu::verify {

struct Violation {
  std::uint32_t violated = 0;        // property bits that failed
  std::size_t round_index = 0;       // which round was in flight
  std::vector<NodeId> subset;        // in-flight updates that had landed
  update::WalkResult walk;           // witness packet walk (if applicable)

  std::string to_string() const;
};

struct CheckOptions {
  std::size_t exhaustive_limit = 20;
  std::size_t monte_carlo_samples = 4096;
  std::uint64_t monte_carlo_seed = 0xc0ffee123ULL;
  std::size_t max_violations = 8;  // stop collecting after this many
  bool check_final_state = true;   // full state must deliver along new path
  bool check_cleanup = true;       // cleanup nodes unreachable when deleted
};

struct CheckReport {
  bool ok = false;
  bool exhaustive = false;         // every round fully enumerated
  std::size_t states_checked = 0;
  std::vector<Violation> violations;

  std::string to_string() const;
};

// Verifies `schedule` on `inst` against `properties`.
CheckReport check_schedule(const update::Instance& inst,
                           const update::Schedule& schedule,
                           std::uint32_t properties,
                           const CheckOptions& options = {});

// Convenience: checks a one-round-per-call state sequence, i.e. evaluates a
// single concrete state against the property mask. Allocation-free unless
// kGlobalLoopFree is requested. Used by the dataplane monitor to classify
// live packet walks.
bool state_ok(const update::Instance& inst, const update::StateMask& state,
              std::uint32_t properties);

// Shrinks a violation's in-flight subset to a locally minimal one: removing
// any single remaining node makes the violation disappear. Greatly improves
// diagnostics ("exactly nodes {2, 9} racing causes the bypass"). The
// returned violation replays against the same schedule round.
Violation minimize_violation(const update::Instance& inst,
                             const update::Schedule& schedule,
                             const Violation& violation,
                             std::uint32_t properties);

}  // namespace tsu::verify
