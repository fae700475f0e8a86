// Update requests: the controller-side representation of one policy change.
//
// Mirrors the paper's message objects: "All messages save the update
// schedule and the OpenFlow messages in the message object and therefore,
// every round of the update schedule is processed in the same way." A
// request carries, per round, the FlowMods destined for each switch; the
// interval field is the inter-round pause from the REST header.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tsu/proto/messages.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/update/optimizer.hpp"
#include "tsu/update/schedule.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::controller {

struct RoundOp {
  NodeId node = kInvalidNode;
  proto::FlowMod mod;
  // Inverse of `mod` against the pre-update state (ADD -> DELETE_STRICT,
  // MODIFY -> MODIFY back to the old next hop, cleanup DELETE -> re-ADD):
  // the rollback path replays completed rounds' undos in reverse round
  // order to abort a partially installed update. Absent for raw mods whose
  // prior state the lowering never saw (REST "add" passthrough).
  std::optional<proto::FlowMod> undo;
};

struct UpdateRequest {
  std::string name;
  FlowId flow = 0;
  std::vector<std::vector<RoundOp>> rounds;
  sim::Duration interval = 0;  // pause between rounds ("interval" in REST)
  // Service-mode arrival hint: when the request entered the serving system
  // (its pending queue), possibly well before submit(). Unset means
  // "arrived at submit time" - the closed-loop behaviour.
  std::optional<sim::SimTime> enqueued;
};

// The rules that realize a path before any update: every path node forwards
// to its successor; the destination delivers to its host.
std::vector<RoundOp> initial_rules(const update::Instance& inst, FlowId flow,
                                   std::uint16_t priority);

// Lowers a scheduler's output to per-round FlowMods:
//   new-only nodes  -> ADD,
//   both-path nodes -> MODIFY,
//   cleanup nodes   -> DELETE_STRICT (appended as a final round).
UpdateRequest request_from_schedule(const update::Instance& inst,
                                    const update::Schedule& schedule,
                                    FlowId flow, std::uint16_t priority,
                                    sim::Duration interval);

// Lowers a multi-policy merged schedule (update::merge_policies) to one
// controller request whose global rounds interleave the policies' FlowMods
// (flows[i] is policy i's flow id). Each policy's rounds stay in order and
// barrier-separated, so every per-policy transient guarantee carries over;
// the merge only parallelizes across policies. Cleanup deletes of all
// policies are appended as one final round.
UpdateRequest request_from_merged(
    const std::vector<const update::Instance*>& policies,
    const std::vector<const update::Schedule*>& schedules,
    const update::MergedSchedule& merged, const std::vector<FlowId>& flows,
    std::uint16_t priority, sim::Duration interval);

}  // namespace tsu::controller
