// Bounded-memory soak: the acceptance test behind the open-loop service
// mode. Runs millions of cumulative updates through execute_service and
// pins the three claims the closed-loop suite cannot check:
//
//   1. Memory stays FLAT while cumulative work grows without bound - the
//      allocator live-bytes watermark (alloc_hooks) is sampled every
//      snapshot window and the late-run high-water mark must not drift
//      above the post-warmup one.
//   2. The xid space wraps and recycles at least one full cycle: the test
//      pre-exhausts the 24-bit sequence down to a sliver via the tune
//      hook, so after the first few thousand barriers EVERY xid the run
//      emits is a recycled one. Millions of completions later, the run
//      finishing at all proves recycling sustains steady state.
//   3. Every per-xid / per-update map drains: steady_state_entries == 0
//      after the run, and the safety oracle (traffic section) sees zero
//      violations while updates churn.
//
// alloc_hooks.hpp replaces global operator new/delete - this must be the
// ONLY translation unit in the binary that includes it.
#include "tsu/util/alloc_hooks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tsu/controller/controller.hpp"
#include "tsu/controller/shard.hpp"
#include "tsu/core/service.hpp"

namespace tsu::core {
namespace {

// Debug/sanitizer builds run the slim soak (CMake defines TSU_SOAK_SLIM):
// same phases, two orders of magnitude fewer updates, so ASan/TSan still
// walk the wrap-recycling and drain paths inside the CI budget.
#ifdef TSU_SOAK_SLIM
constexpr std::uint64_t kSoakTarget = 30'000;
constexpr std::uint64_t kTrafficTarget = 3'000;
#else
constexpr std::uint64_t kSoakTarget = 2'000'000;
constexpr std::uint64_t kTrafficTarget = 100'000;
#endif

// Leave this many fresh sequence numbers before the 24-bit wrap; every
// xid after those comes from the recycle free list.
constexpr std::uint32_t kFreshXidsBeforeWrap = 1024;

ServiceConfig soak_config(std::uint64_t target) {
  ServiceConfig config;
  config.exec.seed = 1234;
  config.exec.with_traffic = false;
  config.flows = 8;
  config.pool_switches = 48;
  config.exec.controller.max_in_flight = 16;
  config.arrival_rate_per_sec = 50'000;
  config.max_pending = 512;
  config.target_completions = target;
  config.tune = [](controller::ShardCoordinator& coord) {
    coord.shard(0).exhaust_xid_space_for_test(kFreshXidsBeforeWrap);
  };
  return config;
}

TEST(SoakTest, MemoryStaysFlatAcrossMillionsOfUpdates) {
  ServiceConfig config = soak_config(kSoakTarget);
  // Sample the allocator watermark once per sim-second. At 50k arrivals/s
  // the run spans ~target/50k seconds of sim time.
  config.snapshot_interval = sim::milliseconds(1000);
  config.snapshot_window = 8;
  std::vector<std::uint64_t> watermarks;
  watermarks.reserve(256);  // reserve BEFORE the run: sampling mustn't grow
  config.on_snapshot = [&](const ServiceSnapshot& snap) {
    // Per-xid/per-update map entries are bounded by the in-flight window
    // at EVERY sample, not just after the drain.
    EXPECT_LE(snap.steady_state_entries, 4096u);
    if (watermarks.size() < watermarks.capacity())
      watermarks.push_back(alloc_hooks::live_bytes());
  };

  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();

  EXPECT_EQ(result.stats.completed, kSoakTarget);
  EXPECT_EQ(result.stats.aborted, 0u);
  EXPECT_EQ(result.completions.count, kSoakTarget);
  // Drain contract: every controller map/queue is empty again.
  EXPECT_EQ(result.steady_state_entries_final, 0u);
  // Wrap recycling: only kFreshXidsBeforeWrap fresh sequence numbers
  // existed, and each completion consumed multiple barrier xids - so the
  // run recycled the full sequence space many times over. The free list
  // holds the retired (bounded) pool afterwards.
  EXPECT_GT(result.retired_xids, 0u);
  EXPECT_LE(result.retired_xids, static_cast<std::size_t>(
                                     kFreshXidsBeforeWrap));
  EXPECT_GT(result.stats.completed / kFreshXidsBeforeWrap, 1u)
      << "run too short to have cycled the pre-exhausted xid space";

  // The watermark check: compare high-water marks window-over-window.
  // Warmup (first quarter) may grow - pools fill, tables rehash to their
  // steady-state size. After that the high-water mark must be FLAT: the
  // last quarter's max may not exceed the post-warmup max before it by
  // more than a small slack (allocator jitter, not growth).
  if (alloc_hooks::tracks_live_bytes() && watermarks.size() >= 8) {
    const std::size_t warmup = watermarks.size() / 4;
    const std::size_t tail = watermarks.size() - watermarks.size() / 4;
    const std::uint64_t settled_max =
        *std::max_element(watermarks.begin() + warmup,
                          watermarks.begin() + tail);
    const std::uint64_t tail_max =
        *std::max_element(watermarks.begin() + tail, watermarks.end());
    constexpr std::uint64_t kSlackBytes = 64 * 1024;
    EXPECT_LE(tail_max, settled_max + kSlackBytes)
        << "allocator high-water mark grew across the soak: "
        << settled_max << " -> " << tail_max << " bytes";
  }
}

// The same open loop with the consistency oracle watching every packet:
// sustained churn must never blackhole, loop, or bypass the waypoint.
TEST(SoakTest, SafetyOracleStaysCleanUnderSustainedChurn) {
  ServiceConfig config = soak_config(kTrafficTarget);
  config.exec.with_traffic = true;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_EQ(result.stats.completed, kTrafficTarget);
  EXPECT_GT(result.traffic.total, 0u);
  EXPECT_EQ(result.traffic.bypassed, 0u);
  EXPECT_EQ(result.traffic.looped, 0u);
  EXPECT_EQ(result.traffic.blackholed, 0u);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

// Overload soak: arrivals far beyond capacity for the whole run. The
// pending queue sheds load at its bound and the backlog never exceeds
// max_pending - overload DURATION must not translate into memory.
TEST(SoakTest, OverloadShedsWithoutAccumulating) {
  ServiceConfig config = soak_config(kSoakTarget / 20);
  config.arrival_rate_per_sec = 500'000;  // ~10x service capacity
  config.max_pending = 64;
  const Result<ServiceResult> run = execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const ServiceResult& result = run.value();
  EXPECT_EQ(result.stats.completed, result.stats.accepted);
  EXPECT_GT(result.stats.rejected, 0u);
  EXPECT_LE(result.stats.peak_pending, 64u);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

}  // namespace
}  // namespace tsu::core
