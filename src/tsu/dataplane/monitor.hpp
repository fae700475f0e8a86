// Consistency monitor: classifies every data-plane packet that traversed
// the network during an update and aggregates violations over time.
//
// The security property of the paper is judged here: a packet that reaches
// the destination host without having crossed the waypoint switch is a
// *waypoint bypass* - the event WayUp exists to prevent.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "tsu/sim/time.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::dataplane {

enum class PacketOutcome : unsigned char {
  kDelivered,         // reached destination, waypoint ok (or no waypoint)
  kBypassedWaypoint,  // reached destination *around* the waypoint
  kLooped,            // revisited a switch
  kBlackholed,        // no matching rule / explicit drop
  kTtlExpired,        // ran out of TTL without revisiting (long detour)
  kFaultDropped,      // arrived at a switch taken down by fault injection
};

const char* to_string(PacketOutcome outcome) noexcept;

struct MonitorReport {
  std::size_t total = 0;
  std::size_t delivered = 0;
  std::size_t bypassed = 0;
  std::size_t looped = 0;
  std::size_t blackholed = 0;
  std::size_t ttl_expired = 0;
  // Packets that hit a crashed (non-serving) switch. Deliberately excluded
  // from violation_rate(): losing traffic at a dead switch is outage, not
  // an inconsistency - a correct fault run keeps blackholed == 0 while
  // fault_dropped counts the crash's collateral.
  std::size_t fault_dropped = 0;

  // Fraction of packets violating any transient property.
  double violation_rate() const noexcept;
  // Fraction of packets violating the *security* property (bypass).
  double bypass_rate() const noexcept;
  std::string to_string() const;
};

class ConsistencyMonitor {
 public:
  // The most timeline buckets one monitor holds, whatever the arrival
  // times: 2^16 buckets of 32 B, 2 MiB per flow, which at the default 1 ms
  // width is 65.536 s of simulated time (the longest closed-loop runs in
  // this repository need under 2,000). A record at or past the last bucket
  // still counts in the report but leaves the timeline alone and marks it
  // overflowed; the executor then fails the run with an error. Sizing the
  // timeline by arrival time alone let one late arrival (a link latency of
  // 1e7 ms) ask for gigabytes.
  static constexpr std::size_t kMaxTimelineBuckets = std::size_t{1} << 16;

  // bucket_width = 0 disables the per-bucket timeline (aggregate counts
  // only) - required for open-loop runs whose timeline would otherwise
  // grow with the sim horizon.
  explicit ConsistencyMonitor(sim::Duration bucket_width =
                                  sim::milliseconds(1))
      : bucket_width_(bucket_width) {}

  // Thread-safe and commutative: under the parallel sharded engine a
  // flow's packets can finish on whichever shard owns their last switch,
  // so concurrent epochs may record from several workers. Every count and
  // timeline bucket is a pure accumulator keyed by the simulation
  // timestamp, so the final report is independent of record() call order -
  // which is what keeps parallel runs bit-identical to sequential ones.
  void record(sim::SimTime at, PacketOutcome outcome);

  // Readers are only safe once the simulation has quiesced (the executor
  // reads after run()); they are not synchronized against record().
  const MonitorReport& report() const noexcept { return report_; }

  struct Bucket {
    std::size_t delivered = 0;
    std::size_t bypassed = 0;
    std::size_t looped = 0;
    std::size_t blackholed = 0;
  };
  // Outcome counts per bucket_width window since t=0 (index = t / width).
  const std::vector<Bucket>& timeline() const noexcept { return timeline_; }
  sim::Duration bucket_width() const noexcept { return bucket_width_; }
  // True once a record fell past kMaxTimelineBuckets: the timeline then
  // misses outcomes the report counts. Safe while records run (a traffic
  // source reads it to stop its stream).
  bool timeline_overflowed() const noexcept {
    return timeline_overflowed_.load(std::memory_order_relaxed);
  }

  // Renders the per-bucket bypass/loop counts as a compact text timeline.
  std::string timeline_to_string() const;

 private:
  sim::Duration bucket_width_;
  std::mutex mutex_;  // guards record() against concurrent shard workers
  MonitorReport report_;
  std::vector<Bucket> timeline_;
  std::atomic<bool> timeline_overflowed_{false};
};

// Per-flow consistency monitors for a concurrent multi-flow run: every
// in-flight update gets its own ConsistencyMonitor (stable references, so
// traffic sources can hold them across the run) plus an aggregate view over
// all flows observed simultaneously.
class MultiFlowMonitor {
 public:
  explicit MultiFlowMonitor(sim::Duration bucket_width =
                                sim::milliseconds(1))
      : bucket_width_(bucket_width) {}

  // The monitor watching `flow`; created on first use.
  ConsistencyMonitor& monitor(FlowId flow);
  const ConsistencyMonitor* find(FlowId flow) const noexcept;

  const std::map<FlowId, ConsistencyMonitor>& flows() const noexcept {
    return flows_;
  }

  // Outcome counts summed across every flow.
  MonitorReport aggregate() const;

 private:
  sim::Duration bucket_width_;
  std::map<FlowId, ConsistencyMonitor> flows_;
};

}  // namespace tsu::dataplane
