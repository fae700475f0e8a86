#include "tsu/rest/rest.hpp"

#include "tsu/json/json.hpp"
#include "tsu/util/strings.hpp"

namespace tsu::rest {

namespace {

// Datapath numbers may be JSON numbers or numeric strings.
Result<DatapathId> as_dpid(const json::Value& value) {
  if (value.is_number()) {
    const Result<std::int64_t> n =
        value.int_in("datapath id", 0, json::kMaxExactInt);
    if (!n.ok()) return n.error();
    return static_cast<DatapathId>(n.value());
  }
  if (value.is_string()) {
    const auto n = parse_int(value.as_string());
    if (!n.has_value() || *n < 0)
      return make_error(Errc::kParseError,
                        "datapath id string is not a non-negative integer");
    return static_cast<DatapathId>(*n);
  }
  return make_error(Errc::kParseError, "datapath id must be number or string");
}

Result<std::vector<DatapathId>> as_path(const json::Value& value,
                                        const char* field) {
  if (!value.is_array())
    return make_error(Errc::kParseError,
                      std::string(field) + " must be an array");
  std::vector<DatapathId> path;
  for (const json::Value& item : value.as_array()) {
    Result<DatapathId> dpid = as_dpid(item);
    if (!dpid.ok()) return dpid.error();
    path.push_back(dpid.value());
  }
  return path;
}

Result<proto::FlowModCommand> command_for_key(std::string_view key) {
  if (key == "add") return proto::FlowModCommand::kAdd;
  if (key == "modify") return proto::FlowModCommand::kModify;
  if (key == "delete") return proto::FlowModCommand::kDelete;
  return make_error(Errc::kParseError,
                    "unknown body key '" + std::string(key) + "'");
}

Result<FlowModSpec> parse_flow_mod(const json::Value& value,
                                   proto::FlowModCommand command) {
  if (!value.is_object())
    return make_error(Errc::kParseError, "FlowMod entry must be an object");
  const json::Object& obj = value.as_object();

  FlowModSpec spec;
  spec.mod.command = command;

  const json::Value* dpid = obj.find("dpid");
  if (dpid == nullptr)
    return make_error(Errc::kParseError, "FlowMod entry missing 'dpid'");
  Result<DatapathId> dp = as_dpid(*dpid);
  if (!dp.ok()) return dp.error();
  spec.dpid = dp.value();

  if (const json::Value* priority = obj.find("priority")) {
    const Result<std::int64_t> p = priority->int_in("priority", 0, 0xffff);
    if (!p.ok()) return p.error();
    spec.mod.priority = static_cast<std::uint16_t>(p.value());
  }
  if (const json::Value* cookie = obj.find("cookie")) {
    const Result<std::int64_t> c =
        cookie->int_in("cookie", 0, json::kMaxExactInt);
    if (!c.ok()) return c.error();
    spec.mod.cookie = static_cast<std::uint64_t>(c.value());
  }

  if (const json::Value* match = obj.find("match")) {
    if (!match->is_object())
      return make_error(Errc::kParseError, "'match' must be an object");
    for (const auto& [key, field] : match->as_object()) {
      // flow is 64-bit; src, dst and in_port are 32-bit ids.
      const Result<std::int64_t> n = field.int_in(
          key, 0, key == "flow" ? json::kMaxExactInt : 0xffffffff);
      if (!n.ok()) return n.error();
      if (key == "flow")
        spec.mod.match.flow = static_cast<FlowId>(n.value());
      else if (key == "src")
        spec.mod.match.src_host = static_cast<NodeId>(n.value());
      else if (key == "dst")
        spec.mod.match.dst_host = static_cast<NodeId>(n.value());
      else if (key == "in_port")
        spec.mod.match.in_port = static_cast<std::uint32_t>(n.value());
      else
        return make_error(Errc::kParseError,
                          "unknown match field '" + key + "'");
    }
  }

  if (const json::Value* actions = obj.find("actions")) {
    if (!actions->is_array())
      return make_error(Errc::kParseError, "'actions' must be an array");
    for (const json::Value& entry : actions->as_array()) {
      const json::Value* type_value =
          entry.is_object() ? entry.as_object().find("type") : nullptr;
      if (type_value == nullptr || !type_value->is_string())
        return make_error(Errc::kParseError, "action needs a string 'type'");
      const json::Object& action = entry.as_object();
      const std::string& type = type_value->as_string();
      if (type == "OUTPUT") {
        const json::Value* port = action.find("port");
        if (port == nullptr)
          return make_error(Errc::kParseError,
                            "OUTPUT action needs numeric 'port'");
        const Result<std::int64_t> n = port->int_in("port", 0, 0xffffffff);
        if (!n.ok()) return n.error();
        spec.mod.action = flow::Action::forward(static_cast<NodeId>(n.value()));
      } else if (type == "DELIVER") {
        spec.mod.action = flow::Action::deliver();
      } else if (type == "DROP") {
        spec.mod.action = flow::Action::drop();
      } else {
        return make_error(Errc::kParseError,
                          "unknown action type '" + type + "'");
      }
    }
  }

  return spec;
}

}  // namespace

Result<RestUpdateMessage> parse_update_message(std::string_view json_text) {
  Result<json::Value> doc = json::parse(json_text);
  if (!doc.ok()) return doc.error();
  if (!doc.value().is_object())
    return make_error(Errc::kParseError, "REST message must be an object");
  const json::Object& obj = doc.value().as_object();

  RestUpdateMessage message;
  bool saw_oldpath = false;
  bool saw_newpath = false;

  for (const auto& [key, value] : obj) {
    if (key == "oldpath") {
      Result<std::vector<DatapathId>> path = as_path(value, "oldpath");
      if (!path.ok()) return path.error();
      message.old_path = std::move(path).value();
      saw_oldpath = true;
    } else if (key == "newpath") {
      Result<std::vector<DatapathId>> path = as_path(value, "newpath");
      if (!path.ok()) return path.error();
      message.new_path = std::move(path).value();
      saw_newpath = true;
    } else if (key == "wp") {
      Result<DatapathId> wp = as_dpid(value);
      if (!wp.ok()) return wp.error();
      message.waypoint = wp.value();
    } else if (key == "interval") {
      if (!value.is_number())
        return make_error(Errc::kParseError, "'interval' must be a number");
      message.interval_ms = value.as_double();
      if (message.interval_ms < 0)
        return make_error(Errc::kOutOfRange, "'interval' must be >= 0");
    } else {
      Result<proto::FlowModCommand> command = command_for_key(key);
      if (!command.ok()) return command.error();
      if (!value.is_array())
        return make_error(Errc::kParseError,
                          "body key '" + key + "' must hold an array");
      for (const json::Value& entry : value.as_array()) {
        Result<FlowModSpec> spec = parse_flow_mod(entry, command.value());
        if (!spec.ok()) return spec.error();
        message.flow_mods.push_back(std::move(spec).value());
      }
    }
  }

  if (!saw_oldpath || !saw_newpath)
    return make_error(Errc::kParseError,
                      "REST message requires 'oldpath' and 'newpath'");
  return message;
}

std::string to_json(const RestUpdateMessage& message) {
  json::Object root;
  const auto path_array = [](const std::vector<DatapathId>& path) {
    json::Array array;
    for (const DatapathId dp : path)
      array.emplace_back(static_cast<std::int64_t>(dp));
    return array;
  };
  root.set("oldpath", json::Value(path_array(message.old_path)));
  root.set("newpath", json::Value(path_array(message.new_path)));
  if (message.waypoint.has_value())
    root.set("wp", json::Value(static_cast<std::int64_t>(*message.waypoint)));
  root.set("interval", json::Value(message.interval_ms));

  json::Array add, modify, del;
  for (const FlowModSpec& spec : message.flow_mods) {
    json::Object entry;
    entry.set("dpid", json::Value(static_cast<std::int64_t>(spec.dpid)));
    entry.set("priority",
              json::Value(static_cast<std::int64_t>(spec.mod.priority)));
    json::Object match;
    if (spec.mod.match.flow.has_value())
      match.set("flow",
                json::Value(static_cast<std::int64_t>(*spec.mod.match.flow)));
    if (spec.mod.match.src_host.has_value())
      match.set("src", json::Value(static_cast<std::int64_t>(
                           *spec.mod.match.src_host)));
    if (spec.mod.match.dst_host.has_value())
      match.set("dst", json::Value(static_cast<std::int64_t>(
                           *spec.mod.match.dst_host)));
    if (spec.mod.match.in_port.has_value())
      match.set("in_port", json::Value(static_cast<std::int64_t>(
                               *spec.mod.match.in_port)));
    entry.set("match", json::Value(std::move(match)));

    json::Array actions;
    json::Object action;
    switch (spec.mod.action.kind) {
      case flow::ActionKind::kForward:
        action.set("type", json::Value("OUTPUT"));
        action.set("port", json::Value(static_cast<std::int64_t>(
                               spec.mod.action.port)));
        break;
      case flow::ActionKind::kDeliver:
        action.set("type", json::Value("DELIVER"));
        break;
      case flow::ActionKind::kDrop:
        action.set("type", json::Value("DROP"));
        break;
    }
    actions.push_back(json::Value(std::move(action)));
    entry.set("actions", json::Value(std::move(actions)));

    switch (spec.mod.command) {
      case proto::FlowModCommand::kAdd:
        add.push_back(json::Value(std::move(entry)));
        break;
      case proto::FlowModCommand::kModify:
        modify.push_back(json::Value(std::move(entry)));
        break;
      default:
        del.push_back(json::Value(std::move(entry)));
        break;
    }
  }
  if (!add.empty()) root.set("add", json::Value(std::move(add)));
  if (!modify.empty()) root.set("modify", json::Value(std::move(modify)));
  if (!del.empty()) root.set("delete", json::Value(std::move(del)));
  return json::write(json::Value(std::move(root)));
}

Result<update::Instance> to_instance(const RestUpdateMessage& message,
                                     const topo::Topology& topology) {
  const auto map_path =
      [&topology](const std::vector<DatapathId>& dpids,
                  const char* name) -> Result<graph::Path> {
    graph::Path path;
    for (const DatapathId dp : dpids) {
      const std::optional<NodeId> node = topology.node_of_dpid(dp);
      if (!node.has_value())
        return make_error(Errc::kNotFound,
                          std::string(name) + " references unknown datapath " +
                              std::to_string(dp));
      path.push_back(*node);
    }
    return path;
  };

  Result<graph::Path> old_path = map_path(message.old_path, "oldpath");
  if (!old_path.ok()) return old_path.error();
  Result<graph::Path> new_path = map_path(message.new_path, "newpath");
  if (!new_path.ok()) return new_path.error();

  std::optional<NodeId> waypoint;
  if (message.waypoint.has_value()) {
    const std::optional<NodeId> node = topology.node_of_dpid(*message.waypoint);
    if (!node.has_value())
      return make_error(Errc::kNotFound, "wp references unknown datapath");
    waypoint = *node;
  }

  return update::Instance::make(std::move(old_path).value(),
                                std::move(new_path).value(), waypoint);
}

}  // namespace tsu::rest
