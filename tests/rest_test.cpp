#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "tsu/rest/rest.hpp"
#include "tsu/topo/generators.hpp"
#include "tsu/topo/instances.hpp"

namespace tsu::rest {
namespace {

// The paper's example message shape (§2), concretized for Figure 1.
constexpr const char* kFig1Request = R"({
  "oldpath": [1, 2, 3, 4, 8, 5, 6, 12],
  "newpath": [1, 7, 5, 3, 2, 9, 10, 11, 12],
  "wp": 3,
  "interval": 50,
  "add": [
    {"dpid": 7, "priority": 100, "match": {"flow": 1},
     "actions": [{"type": "OUTPUT", "port": 5}]}
  ],
  "modify": [
    {"dpid": 1, "priority": 100, "match": {"flow": 1},
     "actions": [{"type": "OUTPUT", "port": 7}]}
  ]
})";

TEST(RestParseTest, ParsesPaperShapedMessage) {
  const Result<RestUpdateMessage> parsed = parse_update_message(kFig1Request);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const RestUpdateMessage& m = parsed.value();
  EXPECT_EQ(m.old_path,
            (std::vector<DatapathId>{1, 2, 3, 4, 8, 5, 6, 12}));
  EXPECT_EQ(m.new_path,
            (std::vector<DatapathId>{1, 7, 5, 3, 2, 9, 10, 11, 12}));
  EXPECT_EQ(m.waypoint, 3u);
  EXPECT_DOUBLE_EQ(m.interval_ms, 50.0);
  ASSERT_EQ(m.flow_mods.size(), 2u);
  EXPECT_EQ(m.flow_mods[0].dpid, 7u);
  EXPECT_EQ(m.flow_mods[0].mod.command, proto::FlowModCommand::kAdd);
  EXPECT_EQ(m.flow_mods[0].mod.action, flow::Action::forward(5));
  EXPECT_EQ(m.flow_mods[1].mod.command, proto::FlowModCommand::kModify);
}

TEST(RestParseTest, AcceptsNumericStrings) {
  // "the waypoint is a string, which can be converted to an integer value"
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": ["1", "2", "3"], "newpath": ["1", "4", "3"],
          "wp": "2", "interval": 0})");
  // wp=2 is not on the new path; parsing still succeeds - instance
  // validation is a separate step.
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().old_path, (std::vector<DatapathId>{1, 2, 3}));
  EXPECT_EQ(parsed.value().waypoint, 2u);
}

TEST(RestParseTest, WaypointAndBodyOptional) {
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2], "newpath": [1, 2]})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().waypoint.has_value());
  EXPECT_TRUE(parsed.value().flow_mods.empty());
  EXPECT_DOUBLE_EQ(parsed.value().interval_ms, 0.0);
}

TEST(RestParseTest, RetiredKnobsAreUnknownKeys) {
  // A message carries the paper's fields only; the controller knobs live in
  // the run's config document (core/config.hpp).
  const std::pair<const char*, const char*> knobs[] = {
      {"batch_frames", "true"},         {"speculate", "true"},
      {"steal", "true"},                {"plan_cache", "\"on\""},
      {"admission", "\"blind\""},       {"admission_release", "\"round\""},
      {"max_in_flight", "16"},          {"batch_mode", "\"adaptive\""},
      {"batch_window_ms", "0.25"},      {"batch_bytes", "4096"},
      {"shards", "4"},                  {"partition", "\"block\""},
      {"exec", "\"parallel\""},         {"threads", "2"},
      {"liveness_timeout_ms", "20"},    {"failure_response", "\"rollback\""},
      {"priority_class", "1"},
  };
  for (const auto& [key, value] : knobs) {
    const std::string body =
        std::string(R"({"oldpath": [1], "newpath": [1], ")") + key + "\": " +
        value + "}";
    const Result<RestUpdateMessage> parsed = parse_update_message(body);
    ASSERT_FALSE(parsed.ok()) << body;
    EXPECT_NE(parsed.error().message.find("unknown body key"),
              std::string::npos)
        << parsed.error().to_string();
  }
}

TEST(RestParseTest, RejectsMissingPaths) {
  EXPECT_FALSE(parse_update_message(R"({"newpath": [1, 2]})").ok());
  EXPECT_FALSE(parse_update_message(R"({"oldpath": [1, 2]})").ok());
  EXPECT_FALSE(parse_update_message(R"({})").ok());
}

TEST(RestParseTest, RejectsMalformedFields) {
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": "nope", "newpath": [1, 2]})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1, "x"], "newpath": [1, 2]})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1, 2], "newpath": [1, 2], "wp": -3})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1, 2], "newpath": [1, 2],
                       "interval": -1})")
                   .ok());
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1, 2], "newpath": [1, 2],
                       "frobnicate": []})")
                   .ok());
}

TEST(RestParseTest, RejectsBadFlowMods) {
  // Missing dpid.
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1,2], "newpath": [1,2],
                       "add": [{"priority": 1}]})")
                   .ok());
  // Unknown action type.
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1,2], "newpath": [1,2],
                       "add": [{"dpid": 1,
                                "actions": [{"type": "TELEPORT"}]}]})")
                   .ok());
  // Unknown match field.
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1,2], "newpath": [1,2],
                       "add": [{"dpid": 1, "match": {"vlan": 5}}]})")
                   .ok());
  // Priority out of range.
  EXPECT_FALSE(parse_update_message(
                   R"({"oldpath": [1,2], "newpath": [1,2],
                       "add": [{"dpid": 1, "priority": 70000}]})")
                   .ok());
  // Not even JSON.
  EXPECT_FALSE(parse_update_message("oldpath=1,2").ok());
}

TEST(RestParseTest, NonIntegralAndHugeIntegersAreErrors) {
  // Each message once aborted the process: integer fields read the number
  // through an assert that it is integral and at most 2^53 (and an action
  // 'type' through an assert that it is a string).
  const struct {
    const char* body;
    Errc code;
  } cases[] = {
      {R"({"oldpath": [1, 2.5], "newpath": [1, 2]})", Errc::kParseError},
      {R"({"oldpath": [1, 2], "newpath": [1, 2], "add": [{"dpid": 1.5}]})",
       Errc::kParseError},
      {R"({"oldpath": [1, 2], "newpath": [1, 2],
           "add": [{"dpid": 1, "cookie": 1e300}]})",
       Errc::kOutOfRange},
      {R"({"oldpath": [1, 2], "newpath": [1, 2],
           "add": [{"dpid": 1, "match": {"src": 4294967296}}]})",
       Errc::kOutOfRange},
      {R"({"oldpath": [1, 2], "newpath": [1, 2],
           "add": [{"dpid": 1, "actions": [{"type": 5}]}]})",
       Errc::kParseError},
      {R"({"oldpath": [1, 2], "newpath": [1, 2],
           "add": [{"dpid": 1, "actions": [{"type": "OUTPUT",
                                            "port": 2.5}]}]})",
       Errc::kParseError},
  };
  for (const auto& c : cases) {
    const Result<RestUpdateMessage> parsed = parse_update_message(c.body);
    ASSERT_FALSE(parsed.ok()) << c.body;
    EXPECT_EQ(parsed.error().code, c.code) << parsed.error().to_string();
  }
}

TEST(RestParseTest, DeleteEntriesSupported) {
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2], "newpath": [1, 2],
          "delete": [{"dpid": 4, "match": {"flow": 1}}]})");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().flow_mods.size(), 1u);
  EXPECT_EQ(parsed.value().flow_mods[0].mod.command,
            proto::FlowModCommand::kDelete);
}

TEST(RestRoundTripTest, ToJsonParsesBack) {
  const Result<RestUpdateMessage> first = parse_update_message(kFig1Request);
  ASSERT_TRUE(first.ok());
  const std::string rendered = to_json(first.value());
  const Result<RestUpdateMessage> second = parse_update_message(rendered);
  ASSERT_TRUE(second.ok()) << rendered;
  EXPECT_EQ(second.value().old_path, first.value().old_path);
  EXPECT_EQ(second.value().new_path, first.value().new_path);
  EXPECT_EQ(second.value().waypoint, first.value().waypoint);
  ASSERT_EQ(second.value().flow_mods.size(), first.value().flow_mods.size());
  for (std::size_t i = 0; i < second.value().flow_mods.size(); ++i) {
    EXPECT_EQ(second.value().flow_mods[i].dpid,
              first.value().flow_mods[i].dpid);
    EXPECT_EQ(second.value().flow_mods[i].mod.match,
              first.value().flow_mods[i].mod.match);
    EXPECT_EQ(second.value().flow_mods[i].mod.action,
              first.value().flow_mods[i].mod.action);
  }
}

TEST(RestToInstanceTest, MapsDatapathsToNodes) {
  const topo::Fig1 fig = topo::fig1();
  const Result<RestUpdateMessage> parsed = parse_update_message(kFig1Request);
  ASSERT_TRUE(parsed.ok());
  const Result<update::Instance> inst =
      to_instance(parsed.value(), fig.topology);
  ASSERT_TRUE(inst.ok()) << inst.error().to_string();
  EXPECT_EQ(inst.value().old_path(), fig.instance.old_path());
  EXPECT_EQ(inst.value().new_path(), fig.instance.new_path());
  EXPECT_EQ(inst.value().waypoint(), fig.instance.waypoint());
}

TEST(RestToInstanceTest, UnknownDatapathRejected) {
  const topo::Fig1 fig = topo::fig1();
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 99], "newpath": [1, 99]})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(to_instance(parsed.value(), fig.topology).ok());
}

TEST(RestToInstanceTest, InvalidRoutePairRejected) {
  const topo::Fig1 fig = topo::fig1();
  // Different endpoints.
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [1, 2, 3], "newpath": [2, 3]})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(to_instance(parsed.value(), fig.topology).ok());
}

TEST(RestToInstanceTest, CustomDpidMappingHonored) {
  topo::Topology topology = topo::line(3);
  topology.set_dpid(0, 100);
  topology.set_dpid(1, 200);
  topology.set_dpid(2, 300);
  const Result<RestUpdateMessage> parsed = parse_update_message(
      R"({"oldpath": [100, 200, 300], "newpath": [100, 300]})");
  ASSERT_TRUE(parsed.ok());
  const Result<update::Instance> inst =
      to_instance(parsed.value(), topology);
  ASSERT_TRUE(inst.ok()) << inst.error().to_string();
  EXPECT_EQ(inst.value().old_path(), (graph::Path{0, 1, 2}));
  EXPECT_EQ(inst.value().new_path(), (graph::Path{0, 2}));
}

}  // namespace
}  // namespace tsu::rest
