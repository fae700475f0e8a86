#include "tsu/update/schedule.hpp"

#include <sstream>

#include "tsu/update/forwarding.hpp"

namespace tsu::update {

std::size_t Schedule::touched_count() const {
  std::size_t count = 0;
  for (const Round& round : rounds) count += round.size();
  return count;
}

std::string Schedule::to_string() const {
  std::ostringstream out;
  out << algorithm << " [";
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    if (r != 0) out << " | ";
    out << "R" << (r + 1) << ":{";
    for (std::size_t i = 0; i < rounds[r].size(); ++i) {
      if (i != 0) out << ",";
      out << rounds[r][i];
    }
    out << "}";
  }
  out << "]";
  if (!cleanup.empty()) {
    out << " cleanup:{";
    for (std::size_t i = 0; i < cleanup.size(); ++i) {
      if (i != 0) out << ",";
      out << cleanup[i];
    }
    out << "}";
  }
  return out.str();
}

Status validate_schedule(const Instance& inst, const Schedule& schedule) {
  std::vector<int> seen(inst.node_count(), 0);
  for (const Round& round : schedule.rounds) {
    if (round.empty())
      return make_error(Errc::kInvalidArgument, "schedule has an empty round");
    for (const NodeId v : round) {
      if (v >= inst.node_count() || !inst.is_touched(v))
        return make_error(Errc::kInvalidArgument,
                          "scheduled node " + std::to_string(v) +
                              " is not a touched node");
      if (++seen[v] > 1)
        return make_error(Errc::kInvalidArgument,
                          "node " + std::to_string(v) +
                              " scheduled more than once");
    }
  }
  for (const NodeId v : inst.touched()) {
    if (seen[v] == 0)
      return make_error(Errc::kInvalidArgument,
                        "touched node " + std::to_string(v) +
                            " missing from schedule");
  }
  for (const NodeId v : schedule.cleanup) {
    if (v >= inst.node_count() || inst.role(v) != NodeRole::kOldOnly)
      return make_error(Errc::kInvalidArgument,
                        "cleanup node " + std::to_string(v) +
                            " is not old-only");
  }
  return Status::ok_status();
}

StateMask state_after_rounds(const Instance& inst, const Schedule& schedule,
                             std::size_t upto_round) {
  StateMask state = empty_state(inst);
  const std::size_t limit = std::min(upto_round, schedule.rounds.size());
  // A node past node_count() holds no rule: there is nothing to update.
  for (std::size_t r = 0; r < limit; ++r)
    for (const NodeId v : schedule.rounds[r])
      if (v < state.size()) state[v] = true;
  return state;
}

}  // namespace tsu::update
