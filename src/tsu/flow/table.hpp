// Flow table with OpenFlow add/modify/delete semantics and highest-priority
// matching (ties broken towards the more specific match, then insertion
// order, mirroring common switch behaviour).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tsu/flow/match.hpp"

namespace tsu::flow {

struct FlowRule {
  Match match;
  Action action;
  std::uint16_t priority = 0;
  std::uint64_t cookie = 0;

  std::string to_string() const;
};

class FlowTable {
 public:
  // OpenFlow ADD: replaces a rule with identical match and priority,
  // otherwise inserts.
  void add(FlowRule rule);

  // OpenFlow MODIFY (non-strict): rewrites the action of every rule whose
  // match equals `match`; if none matched, behaves like ADD (which is what
  // OVS does for MODIFY on a miss). Returns number of rewritten rules.
  std::size_t modify(const Match& match, std::uint16_t priority,
                     const Action& action, std::uint64_t cookie);

  // OpenFlow DELETE (non-strict): removes every rule subsumed by `match`.
  // Returns the number of removed rules.
  std::size_t remove(const Match& match);

  // OpenFlow DELETE_STRICT: removes the rule with identical match and
  // priority, if present.
  bool remove_strict(const Match& match, std::uint16_t priority);

  // Highest-priority matching rule for `packet`.
  std::optional<FlowRule> lookup(const Packet& packet) const;

  std::size_t size() const noexcept { return rules_.size(); }
  bool empty() const noexcept { return rules_.empty(); }
  const std::vector<FlowRule>& rules() const noexcept { return rules_; }
  void clear() noexcept {
    rules_.clear();
    seq_.clear();
  }

  std::string to_string() const;

 private:
  std::vector<FlowRule> rules_;  // kept sorted: priority desc, specificity
                                 // desc, insertion order
  std::uint64_t next_seq_ = 0;
  std::vector<std::uint64_t> seq_;  // parallel to rules_
};

}  // namespace tsu::flow
