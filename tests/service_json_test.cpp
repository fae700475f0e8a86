// The service's two JSON documents (rest/service_json.hpp), rendered from a
// seeded run and parsed back: every key in order, and every value equal to
// the struct field it renders. Numbers are written with 17 significant
// digits, so a parsed double equals the one rendered.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tsu/core/service.hpp"
#include "tsu/json/json.hpp"
#include "tsu/rest/service_json.hpp"

namespace tsu::rest {
namespace {

using Fields = std::vector<std::pair<std::string, double>>;

json::Value parse_object(const std::string& text) {
  Result<json::Value> parsed = json::parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error().to_string() << "\n" << text;
  if (!parsed.ok() || !parsed.value().is_object()) return json::Object();
  return std::move(parsed).value();
}

void expect_keys(const json::Object& object,
                 const std::vector<std::string>& expected) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object) keys.push_back(key);
  EXPECT_EQ(keys, expected);
}

void expect_fields(const json::Object& object, const Fields& fields) {
  for (const auto& [key, expected] : fields) {
    const json::Value* value = object.find(key);
    ASSERT_NE(value, nullptr) << key;
    ASSERT_TRUE(value->is_number()) << key;
    EXPECT_EQ(value->as_double(), expected) << key;
  }
}

std::vector<std::string> keys_of(const Fields& fields) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : fields) keys.push_back(key);
  return keys;
}

Fields stats_fields(const core::ServiceStats& stats) {
  return {
      {"arrivals", stats.arrivals},
      {"accepted", stats.accepted},
      {"rejected", stats.rejected},
      {"submitted", stats.submitted},
      {"completed", stats.completed},
      {"aborted", stats.aborted},
      {"peak_pending", stats.peak_pending},
      {"peak_controller_depth", stats.peak_controller_depth},
      {"plan_compiles", stats.plan_compiles},
      {"plan_hits", stats.plan_hits},
      {"plan_invalidations", stats.plan_invalidations},
  };
}

core::ServiceResult seeded_run() {
  core::ServiceConfig config;
  config.exec.seed = 11;
  config.flows = 8;
  config.pool_switches = 48;
  config.exec.controller.max_in_flight = 8;
  config.arrival_rate_per_sec = 3000;
  config.max_pending = 4;
  config.target_completions = 200;
  config.snapshot_interval = sim::milliseconds(20);
  const Result<core::ServiceResult> run = core::execute_service(config);
  EXPECT_TRUE(run.ok()) << run.error().to_string();
  return run.ok() ? run.value() : core::ServiceResult{};
}

TEST(ServiceJsonTest, SnapshotRendersEveryField) {
  const core::ServiceResult result = seeded_run();
  ASSERT_FALSE(result.snapshots.empty());
  EXPECT_GT(result.stats.rejected, 0u) << "the run never shed load";
  for (const core::ServiceSnapshot& s : result.snapshots) {
    const json::Value doc = parse_object(to_json(s));
    ASSERT_TRUE(doc.is_object());
    Fields fields{{"at_ms", static_cast<double>(s.at) / 1e6}};
    for (auto& field : stats_fields(s)) fields.push_back(std::move(field));
    const Fields tail{
        {"pending", s.pending},
        {"controller_depth", s.controller_depth},
        {"steady_state_entries", s.steady_state_entries},
        {"window_throughput_per_sec", s.window_throughput_per_sec},
        {"p50_duration_ms", s.p50_duration_ms},
        {"p99_duration_ms", s.p99_duration_ms},
        {"p50_wait_ms", s.p50_wait_ms},
        {"p99_wait_ms", s.p99_wait_ms},
    };
    fields.insert(fields.end(), tail.begin(), tail.end());
    expect_keys(doc.as_object(), keys_of(fields));
    expect_fields(doc.as_object(), fields);
  }
}

TEST(ServiceJsonTest, ResultRendersEveryField) {
  const core::ServiceResult result = seeded_run();
  ASSERT_GT(result.traffic.total, 0u);
  const json::Value doc = parse_object(to_json(result));
  ASSERT_TRUE(doc.is_object());
  const json::Object& root = doc.as_object();

  const controller::CompletionStats& done = result.completions;
  Fields fields = stats_fields(result.stats);
  const Fields tail{
      {"flow_mods_sent", done.flow_mods_sent},
      {"barriers_sent", done.barriers_sent},
      {"rounds", done.rounds},
      {"sim_duration_ms", static_cast<double>(result.sim_duration) / 1e6},
      {"sustained_per_sec", result.sustained_per_sec()},
      {"steady_state_entries_final", result.steady_state_entries_final},
      {"retired_xids", result.retired_xids},
      {"frames_sent", result.frames_sent},
  };
  std::vector<std::string> keys = keys_of(fields);
  keys.push_back("latency");
  for (const auto& [key, value] : tail) keys.push_back(key);
  keys.push_back("traffic");
  fields.insert(fields.end(), tail.begin(), tail.end());
  expect_keys(root, keys);
  expect_fields(root, fields);

  const json::Value* latency = root.find("latency");
  ASSERT_TRUE(latency != nullptr && latency->is_object());
  const Fields latency_fields{
      {"mean_duration_ms", done.duration_ms.mean()},
      {"p50_duration_ms", done.duration_ns.quantile(0.5) / 1e6},
      {"p99_duration_ms", done.duration_ns.quantile(0.99) / 1e6},
      {"mean_wait_ms", done.wait_ms.mean()},
      {"p50_wait_ms", done.wait_ns.quantile(0.5) / 1e6},
      {"p99_wait_ms", done.wait_ns.quantile(0.99) / 1e6},
  };
  expect_keys(latency->as_object(), keys_of(latency_fields));
  expect_fields(latency->as_object(), latency_fields);

  const json::Value* traffic = root.find("traffic");
  ASSERT_TRUE(traffic != nullptr && traffic->is_object());
  const Fields traffic_fields{
      {"total", result.traffic.total},
      {"delivered", result.traffic.delivered},
      {"blackholed", result.traffic.blackholed},
      {"looped", result.traffic.looped},
      {"bypassed", result.traffic.bypassed},
  };
  expect_keys(traffic->as_object(), keys_of(traffic_fields));
  expect_fields(traffic->as_object(), traffic_fields);
}

}  // namespace
}  // namespace tsu::rest
