// Open-loop service mode tests: Poisson arrivals, the bounded FIFO
// pending queue with load shedding, arrival-order starts, live snapshots,
// rejected configurations, and the bounded-memory drain contract
// (steady_state_entries back to zero).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "tsu/core/service.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::core {
namespace {

ServiceConfig small_service() {
  ServiceConfig config;
  config.exec.seed = 42;
  config.exec.with_traffic = false;  // most tests: control plane only
  config.flows = 4;
  config.pool_switches = 24;
  config.exec.controller.max_in_flight = 8;
  config.arrival_rate_per_sec = 20000;
  config.target_completions = 60;
  return config;
}

TEST(ServiceTest, CompletesTargetAndDrainsClean) {
  const Result<ServiceResult> run = execute_service(small_service());
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_EQ(result.stats.accepted, 60u);
  EXPECT_EQ(result.stats.completed, 60u);
  EXPECT_EQ(result.stats.submitted, result.stats.completed);
  EXPECT_EQ(result.stats.aborted, 0u);
  EXPECT_EQ(result.completions.count, 60u);
  EXPECT_EQ(result.recent.size(), 60u);  // below ring capacity: full history
  // Completion order in the recent window.
  for (std::size_t i = 1; i < result.recent.size(); ++i)
    EXPECT_LE(result.recent[i - 1].finished, result.recent[i].finished);
  // The leak detector: every per-xid / per-update map drained to empty.
  EXPECT_EQ(result.steady_state_entries_final, 0u);
  EXPECT_GT(result.retired_xids, 0u);  // xids were released for reuse
  EXPECT_GT(result.sustained_per_sec(), 0.0);
  // Admission wait covers arrival -> start, so it is >= 0 and was folded
  // into the streaming stats for every completion.
  EXPECT_EQ(result.completions.wait_ms.count(), 60u);
}

TEST(ServiceTest, DeterministicPerSeed) {
  const Result<ServiceResult> a = execute_service(small_service());
  const Result<ServiceResult> b = execute_service(small_service());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().stats.arrivals, b.value().stats.arrivals);
  EXPECT_EQ(a.value().stats.completed, b.value().stats.completed);
  EXPECT_EQ(a.value().sim_duration, b.value().sim_duration);
  EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest);
  EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
}

// The service wire path, pinned: an FNV-1a digest over the outcomes of
// 100 seeded runs that mix traffic, 2 shards, batching off or adaptive,
// liveness detection off or 10 ms, and 4 or 6 templates (6 on 24 switches
// repeat paths). Every submission ships compiled-plan frames. The constant
// was recorded while the engine still had a plan-cache-off mode and each
// run was also checked bit-identical - final state, frames, makespan,
// completions and probe verdicts - to a cache-off run that lowered and
// encoded every request from scratch, before the outbox held bytes.
constexpr std::uint64_t kExpectedServiceDigest = 0x66c1da3f1f05921dULL;

TEST(ServiceTest, PlanBackedWirePathIsPinnedAcrossSeeds) {
  std::uint64_t digest = 1469598103934665603ULL;
  const auto mix = [&digest](std::uint64_t value) {
    digest ^= value;
    digest *= 1099511628211ULL;
  };
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ServiceConfig config = small_service();
    config.exec.seed = seed;
    config.target_completions = 30;
    config.exec.with_traffic = (seed % 5 == 0);  // oracle on a fifth of them
    if (seed % 3 == 0) config.exec.controller.shards = 2;
    Rng draw(seed);
    config.exec.controller.batch_mode = draw.index(2) == 0
                                            ? controller::BatchMode::kOff
                                            : controller::BatchMode::kAdaptive;
    config.exec.controller.liveness_timeout =
        draw.index(2) == 0 ? 0 : sim::milliseconds(10);
    config.flows = draw.index(2) == 0 ? 4 : 6;

    const Result<ServiceResult> run = execute_service(config);
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": " << run.error().to_string();
    const ServiceResult& result = run.value();

    // The cache actually engaged: templates repeat, so most submissions
    // after the first few are hits.
    EXPECT_GT(result.stats.plan_hits, 0u) << "seed " << seed;
    EXPECT_GT(result.stats.plan_compiles, 0u) << "seed " << seed;
    mix(result.final_state_digest);
    mix(result.frames_sent);
    mix(result.sim_duration);
    mix(result.stats.completed);
    mix(result.traffic.total);
    mix(result.traffic.delivered);
    mix(result.traffic.bypassed);
    mix(result.traffic.looped);
    mix(result.traffic.blackholed);
    mix(result.stats.plan_compiles);
    mix(result.stats.plan_hits);
    mix(result.stats.plan_invalidations);
  }
  EXPECT_EQ(digest, kExpectedServiceDigest)
      << "digest 0x" << std::hex << digest;
}

// Templates whose paths repeat still get plans of their own. 24 switches
// hold four distinct path pairs (topo::pool_workload), so templates 4 and
// 5 reuse the paths of 0 and 1 under their own flow ids; a cache keyed by
// paths handed them the plans of 0 and 1 and compiled 8 plans, not 12.
TEST(ServiceTest, TemplatesWithRepeatedPathsCompileTheirOwnPlans) {
  ServiceConfig config = small_service();
  config.flows = 6;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceStats& stats = run.value().stats;
  EXPECT_EQ(stats.plan_compiles, 12u);
  EXPECT_EQ(stats.plan_hits, stats.submitted - 12u);
}

TEST(ServiceTest, TrafficOracleSeesNoViolations) {
  ServiceConfig config = small_service();
  config.exec.with_traffic = true;
  config.target_completions = 24;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_GT(result.traffic.total, 0u);
  EXPECT_EQ(result.traffic.bypassed, 0u);
  EXPECT_EQ(result.traffic.looped, 0u);
  EXPECT_EQ(result.traffic.blackholed, 0u);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

TEST(ServiceTest, FullPendingQueueShedsLoad) {
  ServiceConfig config = small_service();
  config.target_completions = 0;
  config.horizon = sim::milliseconds(5);
  config.arrival_rate_per_sec = 1000000;  // far beyond service capacity
  config.max_pending = 8;
  config.exec.controller.max_in_flight = 1;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_GT(result.stats.rejected, 0u);
  EXPECT_LE(result.stats.peak_pending, 8u);
  EXPECT_EQ(result.stats.accepted + result.stats.rejected,
            result.stats.arrivals);
  // Every accepted request still completed - rejection is the ONLY loss.
  EXPECT_EQ(result.stats.completed, result.stats.accepted);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

TEST(ServiceTest, RequestsStartInArrivalOrder) {
  ServiceConfig config = small_service();
  config.exec.seed = 7;
  config.target_completions = 120;
  config.arrival_rate_per_sec = 50000;  // saturating: the queue is never dry
  config.max_pending = 256;
  config.exec.controller.max_in_flight = 1;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_GT(result.stats.peak_pending, 1u);  // requests really queued
  // The recent ring (256 entries) holds all 120 completions. One update in
  // flight at a time completes in start order, and one FIFO starts them in
  // arrival order.
  ASSERT_EQ(result.recent.size(), 120u);
  for (std::size_t i = 1; i < result.recent.size(); ++i) {
    EXPECT_LE(result.recent[i - 1].enqueued, result.recent[i].enqueued) << i;
    EXPECT_LE(result.recent[i - 1].started, result.recent[i].started) << i;
  }
}

TEST(ServiceTest, SnapshotsStreamAndStayBounded) {
  ServiceConfig config = small_service();
  config.target_completions = 80;
  config.arrival_rate_per_sec = 10000;
  config.snapshot_interval = sim::milliseconds(1);
  config.snapshot_window = 4;
  std::size_t callbacks = 0;
  std::uint64_t last_completed = 0;
  config.on_snapshot = [&](const ServiceSnapshot& s) {
    ++callbacks;
    EXPECT_GE(s.completed, last_completed);  // cumulative counters
    last_completed = s.completed;
  };
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  ASSERT_FALSE(result.snapshots.empty());
  EXPECT_LE(result.snapshots.size(), 4u);  // bounded ring
  EXPECT_GE(callbacks, result.snapshots.size());
  for (std::size_t i = 1; i < result.snapshots.size(); ++i)
    EXPECT_LT(result.snapshots[i - 1].at, result.snapshots[i].at);
  // Live stats carried real data.
  EXPECT_GT(result.snapshots.back().completed, 0u);
  EXPECT_GT(result.snapshots.back().p50_duration_ms, 0.0);
}

TEST(ServiceTest, RejectsUnboundedConfigs) {
  ServiceConfig config = small_service();
  config.target_completions = 0;
  config.horizon = 0;
  EXPECT_FALSE(execute_service(config).ok());  // arrivals would never stop
  config = small_service();
  config.max_pending = 0;
  EXPECT_FALSE(execute_service(config).ok());
  // A rate above 1e9/s has a mean gap under 1 ns, which once rounded to 0
  // and aborted the process.
  for (const double rate : {2e9, std::numeric_limits<double>::infinity()}) {
    config = small_service();
    config.arrival_rate_per_sec = rate;
    const Result<ServiceResult> fast = execute_service(config);
    ASSERT_FALSE(fast.ok()) << rate;
    EXPECT_EQ(fast.error().code, Errc::kOutOfRange)
        << fast.error().to_string();
  }
  // A huge snapshot ring once threw std::bad_alloc from its up-front
  // reservation.
  config = small_service();
  config.snapshot_interval = sim::milliseconds(1);
  config.snapshot_window = kMaxSnapshotWindow + 1;
  EXPECT_FALSE(execute_service(config).ok());
}

TEST(ServiceTest, RejectsPoolsSmallerThanOneBlock) {
  // The template pool is built from blocks of 6 switches; a smaller pool
  // (which a ServiceConfig built in code can ask for) is an argument
  // error, not an abort inside topo::pool_workload.
  ServiceConfig config = small_service();
  config.pool_switches = 3;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, Errc::kInvalidArgument);
}

TEST(ServiceTest, ShardedServiceDrainsClean) {
  ServiceConfig config = small_service();
  config.exec.controller.shards = 2;
  config.target_completions = 40;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().stats.completed, 40u);
  EXPECT_EQ(run.value().steady_state_entries_final, 0u);
}

}  // namespace
}  // namespace tsu::core
