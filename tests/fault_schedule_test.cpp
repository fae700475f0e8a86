// FaultSchedule as plain, replayable data: JSON round trips preserve the
// exact event list, seeded generation is deterministic, an empty schedule
// leaves the engine bit-identical, and a serialized schedule replays the
// same digest-pinned trace it was recorded from.
#include <gtest/gtest.h>

#include "tsu/core/executor.hpp"
#include "tsu/json/json.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/verify/transient.hpp"
#include "multiflow_workload.hpp"

namespace tsu::sim {
namespace {

FaultSchedule sample_schedule() {
  FaultSchedule schedule;
  FaultEvent crash;
  crash.kind = FaultKind::kSwitchCrash;
  crash.at = milliseconds(3);
  crash.node = 4;
  crash.down_for = milliseconds(2);
  crash.lose_state = true;
  schedule.add(crash);
  FaultEvent warm = crash;
  warm.at = milliseconds(8);
  warm.node = 10;
  warm.lose_state = false;
  schedule.add(warm);
  FaultEvent link;
  link.kind = FaultKind::kLinkDown;
  link.at = milliseconds(5);
  link.node = 7;
  link.down_for = milliseconds(1);
  schedule.add(link);
  FaultEvent hole;
  hole.kind = FaultKind::kBlackhole;
  hole.at = milliseconds(2);
  hole.node = 1;
  hole.frames = 3;
  schedule.add(hole);
  return schedule;
}

TEST(FaultScheduleTest, AddKeepsEventsSortedByTime) {
  const FaultSchedule schedule = sample_schedule();
  ASSERT_EQ(schedule.size(), 4u);
  for (std::size_t i = 1; i < schedule.size(); ++i)
    EXPECT_LE(schedule.events()[i - 1].at, schedule.events()[i].at);
  EXPECT_EQ(schedule.events().front().kind, FaultKind::kBlackhole);
}

TEST(FaultScheduleTest, FaultScheduleRoundTrips) {
  const FaultSchedule schedule = sample_schedule();

  // Value round trip and textual round trip both reproduce the schedule.
  const Result<FaultSchedule> via_value =
      FaultSchedule::from_json(schedule.to_json());
  ASSERT_TRUE(via_value.ok()) << via_value.error().to_string();
  EXPECT_EQ(via_value.value(), schedule);

  const std::string text = json::write(schedule.to_json());
  const Result<FaultSchedule> via_text =
      FaultSchedule::from_json(std::string_view(text));
  ASSERT_TRUE(via_text.ok()) << via_text.error().to_string();
  EXPECT_EQ(via_text.value(), schedule);

  // The replay contract behind `sim_cli --faults`: running the engine from
  // the reparsed schedule reproduces the recorded run exactly - same final
  // forwarding state, same fault trace, same makespan.
  const testutil::Workload w = testutil::disjoint_workload(2);
  core::ExecutorConfig config;
  config.warmup = milliseconds(2);
  config.drain = milliseconds(8);
  config.controller.liveness_timeout = milliseconds(3);
  config.faults = schedule;
  const Result<core::MultiFlowExecutionResult> recorded =
      core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(recorded.ok()) << recorded.error().to_string();

  config.faults = via_text.value();
  const Result<core::MultiFlowExecutionResult> replayed =
      core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(replayed.ok()) << replayed.error().to_string();

  EXPECT_EQ(replayed.value().final_state_digest,
            recorded.value().final_state_digest);
  EXPECT_EQ(replayed.value().initial_state_digest,
            recorded.value().initial_state_digest);
  EXPECT_EQ(replayed.value().makespan, recorded.value().makespan);
  EXPECT_EQ(replayed.value().frames_sent, recorded.value().frames_sent);
  EXPECT_EQ(replayed.value().faults.crashes, recorded.value().faults.crashes);
  EXPECT_EQ(replayed.value().faults.resyncs, recorded.value().faults.resyncs);
  EXPECT_EQ(replayed.value().faults.resync_frames,
            recorded.value().faults.resync_frames);
  EXPECT_EQ(replayed.value().faults.retries, recorded.value().faults.retries);
  EXPECT_EQ(replayed.value().faults.frames_lost,
            recorded.value().faults.frames_lost);
  EXPECT_EQ(replayed.value().faults.recovery_ms,
            recorded.value().faults.recovery_ms);
}

TEST(FaultScheduleTest, FromJsonAcceptsBareEventsArray) {
  const Result<FaultSchedule> parsed = FaultSchedule::from_json(
      std::string_view("[{\"kind\":\"crash\",\"at_ms\":4,\"node\":2,"
                       "\"down_ms\":1.5}]"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value().events()[0].kind, FaultKind::kSwitchCrash);
  EXPECT_EQ(parsed.value().events()[0].node, 2u);
  EXPECT_EQ(parsed.value().events()[0].down_for, microseconds(1500));
  EXPECT_TRUE(parsed.value().events()[0].lose_state);  // defaulted
}

TEST(FaultScheduleTest, FromJsonRejectsMalformedEvents) {
  EXPECT_FALSE(FaultSchedule::from_json(
                   std::string_view("{\"events\": 3}")).ok());
  EXPECT_FALSE(
      FaultSchedule::from_json(
          std::string_view("[{\"kind\":\"melt\",\"at_ms\":1,\"node\":0}]"))
          .ok());
  EXPECT_FALSE(  // crash without a down window
      FaultSchedule::from_json(
          std::string_view("[{\"kind\":\"crash\",\"at_ms\":1,\"node\":0}]"))
          .ok());
  EXPECT_FALSE(  // negative time
      FaultSchedule::from_json(
          std::string_view("[{\"kind\":\"blackhole\",\"at_ms\":-1,"
                           "\"node\":0}]"))
          .ok());
  EXPECT_FALSE(  // zero-frame blackhole
      FaultSchedule::from_json(
          std::string_view("[{\"kind\":\"blackhole\",\"at_ms\":1,\"node\":0,"
                           "\"frames\":0}]"))
          .ok());
}

TEST(FaultScheduleTest, FromJsonRejectsTimesBeyondTheClockRange) {
  // 1e300 ms once reached an unbounded double -> uint64_t cast (undefined
  // behaviour) and then a wrapping now + delay in the simulator.
  const Result<FaultSchedule> far_at = FaultSchedule::from_json(
      std::string_view("[{\"kind\":\"crash\",\"at_ms\":1e300,\"node\":1,"
                       "\"down_ms\":1}]"));
  ASSERT_FALSE(far_at.ok());
  EXPECT_EQ(far_at.error().code, Errc::kOutOfRange);
  const Result<FaultSchedule> long_down = FaultSchedule::from_json(
      std::string_view("[{\"kind\":\"link_down\",\"at_ms\":1,\"node\":1,"
                       "\"down_ms\":1e300}]"));
  ASSERT_FALSE(long_down.ok());
  EXPECT_EQ(long_down.error().code, Errc::kOutOfRange);

  // The largest accepted values still fit the clock, crash and restart
  // instant both.
  const std::string at_max = std::to_string(to_ms(kMaxDuration));
  const Result<FaultSchedule> edge = FaultSchedule::from_json(std::string_view(
      "[{\"kind\":\"crash\",\"at_ms\":" + at_max +
      ",\"node\":1,\"down_ms\":" + at_max + "}]"));
  ASSERT_TRUE(edge.ok()) << edge.error().to_string();
  const FaultEvent& event = edge.value().events()[0];
  EXPECT_LE(event.at, kMaxDuration);
  EXPECT_LE(event.down_for, kMaxDuration);
  EXPECT_GT(event.at + event.down_for, event.at);
}

TEST(FaultScheduleTest, FromJsonRejectsNonIntegralAndHugeIntegers) {
  // A fractional node or a 1e300 frame count once aborted the process; a
  // node id past 32 bits silently became another switch.
  const struct {
    const char* doc;
    Errc code;
  } cases[] = {
      {R"([{"kind":"crash","at_ms":1,"node":1.5,"down_ms":1}])",
       Errc::kParseError},
      {R"([{"kind":"blackhole","at_ms":1,"node":0,"frames":1e300}])",
       Errc::kOutOfRange},
      {R"([{"kind":"crash","at_ms":1,"node":1099511627776,"down_ms":1}])",
       Errc::kOutOfRange},
  };
  for (const auto& c : cases) {
    const Result<FaultSchedule> parsed =
        FaultSchedule::from_json(std::string_view(c.doc));
    ASSERT_FALSE(parsed.ok()) << c.doc;
    EXPECT_EQ(parsed.error().code, c.code) << parsed.error().to_string();
  }
}

TEST(FaultScheduleTest, RandomGenerationIsSeedDeterministic) {
  ChaosOptions options;
  options.node_count = 24;
  options.start_ms = 1;
  options.horizon_ms = 20;
  options.crashes = 3;
  options.link_downs = 2;
  options.blackholes = 2;
  const FaultSchedule a = FaultSchedule::random(7, options);
  const FaultSchedule b = FaultSchedule::random(7, options);
  const FaultSchedule c = FaultSchedule::random(8, options);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 7u);
  for (const FaultEvent& event : a.events()) {
    EXPECT_LT(event.node, options.node_count);
    EXPECT_GE(event.at, milliseconds(1));
    EXPECT_LE(event.at, milliseconds(21));
    if (event.kind != FaultKind::kBlackhole) {
      EXPECT_GE(event.down_for, from_ms(options.min_down_ms));
      EXPECT_LE(event.down_for, from_ms(options.max_down_ms));
    } else {
      EXPECT_GE(event.frames, 1u);
      EXPECT_LE(event.frames, options.max_blackhole_frames);
    }
  }
}

TEST(FaultScheduleTest, EmptyScheduleLeavesEngineBitIdentical) {
  // The subsystem's core invariant: with no faults injected, enabling the
  // fault-tolerance machinery (shadow tables, send fencing, liveness
  // timers) must not perturb the run - same forwarding state, same frames,
  // same makespan, same packet outcomes, and every fault counter zero.
  const testutil::Workload w = testutil::disjoint_workload(3);
  core::ExecutorConfig plain;
  plain.drain = milliseconds(8);
  const Result<core::MultiFlowExecutionResult> baseline =
      core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, plain);
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();

  core::ExecutorConfig armed = plain;
  armed.controller.liveness_timeout = milliseconds(5);
  const Result<core::MultiFlowExecutionResult> guarded =
      core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, armed);
  ASSERT_TRUE(guarded.ok()) << guarded.error().to_string();

  EXPECT_EQ(guarded.value().final_state_digest,
            baseline.value().final_state_digest);
  EXPECT_EQ(guarded.value().initial_state_digest,
            baseline.value().initial_state_digest);
  EXPECT_EQ(guarded.value().frames_sent, baseline.value().frames_sent);
  EXPECT_EQ(guarded.value().makespan, baseline.value().makespan);
  EXPECT_EQ(guarded.value().aggregate.total, baseline.value().aggregate.total);
  EXPECT_EQ(guarded.value().aggregate.delivered,
            baseline.value().aggregate.delivered);
  EXPECT_FALSE(guarded.value().faults.any());
  EXPECT_EQ(guarded.value().faults.resyncs, 0u);
  EXPECT_EQ(guarded.value().faults.retries, 0u);
  EXPECT_EQ(guarded.value().faults.frames_lost, 0u);

  // And the transient oracle agrees a fault-free trace is trivially clean.
  const verify::TransientCheckReport report = verify::check_fault_trace(
      FaultSchedule{}, guarded.value().faults, guarded.value().aggregate,
      w.instances.size(), guarded.value().flows.size());
  EXPECT_TRUE(report.ok) << report.to_string();
}

TEST(FaultScheduleTest, ExecutorRejectsFaultsOnUnknownSwitch) {
  const testutil::Workload w = testutil::disjoint_workload(1);
  core::ExecutorConfig config;
  FaultEvent crash;
  crash.kind = FaultKind::kSwitchCrash;
  crash.at = milliseconds(3);
  crash.node = 99;  // pool only has nodes 0..5
  crash.down_for = milliseconds(1);
  config.faults.add(crash);
  const Result<core::MultiFlowExecutionResult> run =
      core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  EXPECT_FALSE(run.ok());
}

TEST(FaultScheduleTest, RecoveryPercentilesSummarizeSamples) {
  FaultStats stats;
  EXPECT_EQ(stats.recovery_p50_ms(), 0.0);
  stats.recovery_ms = {4.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats.recovery_p50_ms(), 2.5);
  EXPECT_GE(stats.recovery_p99_ms(), 3.9);
  EXPECT_LE(stats.recovery_p99_ms(), 4.0);
}

}  // namespace
}  // namespace tsu::sim
