// The paper's REST update message (§2):
//
//   {
//     "oldpath":[<dp-num>,<dp-num>,<dp-num>],
//     "newpath":[<dp-num>,<dp-num>,<dp-num>],
//     "wp":<dp-num>,
//     "interval":<time in ms>,
//     <type>:[<OpenFlow message information>],
//     ...
//   }
//
// Header fields parameterize the scheduler (routes, waypoint, inter-round
// interval); the body carries explicit FlowMod descriptions keyed by type
// ("add" / "modify" / "delete"), in the style of Ryu's ofctl_rest. As in
// Ryu, datapath numbers may arrive as JSON numbers or numeric strings ("the
// waypoint is a string, which can be converted to an integer value").
// Those are the only keys: the controller that serves the message is
// configured by the run's config document (core/config.hpp), not by the
// message.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tsu/proto/messages.hpp"
#include "tsu/topo/topology.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/status.hpp"

namespace tsu::rest {

struct FlowModSpec {
  DatapathId dpid = kInvalidDatapath;
  proto::FlowMod mod;
};

struct RestUpdateMessage {
  std::vector<DatapathId> old_path;
  std::vector<DatapathId> new_path;
  std::optional<DatapathId> waypoint;
  double interval_ms = 0;
  std::vector<FlowModSpec> flow_mods;
};

// Parses the JSON request body. Unknown body keys are rejected; "add",
// "modify", "delete" carry FlowMod arrays.
Result<RestUpdateMessage> parse_update_message(std::string_view json_text);

// Round-trip support (compact JSON).
std::string to_json(const RestUpdateMessage& message);

// Maps datapath numbers to topology nodes and validates the two routes as
// an update instance.
Result<update::Instance> to_instance(const RestUpdateMessage& message,
                                     const topo::Topology& topology);

}  // namespace tsu::rest
