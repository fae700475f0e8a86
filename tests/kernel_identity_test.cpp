// Bit-identity guard for the planner/checker kernel. Folds an FNV-1a digest
// over 2000 seeded random instances (interior sizes 3-10, with and without a
// waypoint): every schedule WayUp, Peacock, secure, plan_optimal and
// SLF-greedy return (rounds in order, or the error code when they decline -
// secure's kExhausted infeasibility verdicts included), and every
// check_schedule report on those schedules (ok, states_checked, and each
// violation's round, subset, outcome and trace). The constant was recorded
// before the kernel was made allocation-free; any change to a chosen round,
// a verdict or a witness walk changes the digest.
#include <gtest/gtest.h>

#include <cstdint>

#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/verify/checker.hpp"

namespace tsu {
namespace {

constexpr std::uint64_t kExpectedDigest = 0x8daff245a7e3f333ULL;

class Digest {
 public:
  void mix(std::uint64_t value) {
    digest_ ^= value;
    digest_ *= 1099511628211ULL;
  }
  void mix(const std::vector<NodeId>& nodes) {
    mix(nodes.size());
    for (const NodeId v : nodes) mix(v);
  }
  std::uint64_t value() const { return digest_; }

 private:
  std::uint64_t digest_ = 1469598103934665603ULL;
};

void mix_report(Digest& d, const verify::CheckReport& report) {
  d.mix(report.ok ? 1 : 0);
  d.mix(report.states_checked);
  d.mix(report.violations.size());
  for (const verify::Violation& v : report.violations) {
    d.mix(v.violated);
    d.mix(v.round_index);
    d.mix(v.subset);
    d.mix(static_cast<std::uint64_t>(v.walk.outcome));
    d.mix(v.walk.trace);
  }
}

void mix_planned(Digest& d, const update::Instance& inst,
                 const Result<update::Schedule>& planned,
                 std::uint32_t claimed) {
  if (!planned.ok()) {
    d.mix(0xE000 + static_cast<std::uint64_t>(planned.error().code));
    return;
  }
  const update::Schedule& schedule = planned.value();
  d.mix(schedule.rounds.size());
  for (const update::Round& round : schedule.rounds) d.mix(round);
  d.mix(schedule.cleanup);
  // The claimed mask passes; the full mask also exercises the violation
  // witnesses of properties the planner does not guarantee.
  mix_report(d, verify::check_schedule(inst, schedule, claimed));
  mix_report(d, verify::check_schedule(
                    inst, schedule,
                    update::kTransientlySecure | update::kGlobalLoopFree));
}

TEST(KernelIdentityTest, PlannerAndCheckerOutputsAreBitIdentical) {
  Rng rng(0x5ec0de);
  Digest d;
  std::size_t exhausted = 0;
  for (std::size_t n = 0; n < 2000; ++n) {
    topo::RandomInstanceOptions options;
    options.old_interior_min = 3;
    options.old_interior_max = 10;
    options.new_len_min = 3;
    options.new_len_max = 10;
    options.with_waypoint = n % 2 == 0;
    const update::Instance inst = topo::random_instance(rng, options);
    d.mix(inst.identity_digest());

    if (inst.has_waypoint()) {
      mix_planned(d, inst, update::plan_wayup(inst), update::kWayUpGuarantee);
      const Result<update::Schedule> secure = update::plan_secure(inst);
      if (!secure.ok() && secure.error().code == Errc::kExhausted) ++exhausted;
      mix_planned(d, inst, secure, update::kTransientlySecure);
    }
    mix_planned(d, inst, update::plan_peacock(inst),
                update::kPeacockGuarantee);
    mix_planned(d, inst, update::plan_slf_greedy(inst), update::kSlfGuarantee);
    update::OptimalOptions optimal;
    optimal.properties = inst.has_waypoint() ? update::kTransientlySecure
                                             : update::kPeacockGuarantee;
    optimal.node_limit = 10;
    mix_planned(d, inst, update::plan_optimal(inst, optimal),
                optimal.properties);
  }
  // The sweep must include infeasibility proofs, the search's worst case.
  EXPECT_GT(exhausted, 0u);
  EXPECT_EQ(d.value(), kExpectedDigest)
      << "digest 0x" << std::hex << d.value();
}

}  // namespace
}  // namespace tsu
