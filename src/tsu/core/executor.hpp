// Executes a schedule against the full simulated control plane - the C++
// equivalent of running the paper's demo once: switches come up with the old
// route installed, traffic flows, the controller pushes the schedule round
// by round over asynchronous channels with barriers, and the consistency
// monitor watches every packet.
//
// The engine behind both entry points (execute_multiflow for closed-loop
// runs, execute_service for open-loop ones; core/service.hpp) runs over
// CONTROLLER SHARDS (controller/shard.hpp): config.controller.shards
// partitions the switches across that many controller instances on a
// sharded logical clock (sim/sharded.hpp), with cross-shard updates
// coordinated round-by-round.
// The default shards = 1 is the single controller, bit-identical to the
// pre-sharding engine.
#pragma once

#include <cstdint>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/controller.hpp"
#include "tsu/controller/shard.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/dataplane/traffic.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/update/schedule.hpp"
#include "tsu/util/status.hpp"

namespace tsu::core {

struct ExecutorConfig {
  std::uint64_t seed = 1;
  channel::ChannelConfig channel;
  switchsim::SwitchConfig switch_config;
  controller::ControllerConfig controller;
  FlowId flow = 1;
  std::uint16_t priority = 100;
  sim::Duration interval = 0;        // inter-round pause (REST "interval")
  // Traffic during the update.
  bool with_traffic = true;
  sim::LatencyModel traffic_interarrival =
      sim::LatencyModel::constant(sim::microseconds(200));
  sim::LatencyModel link_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  int ttl = 64;
  sim::Duration warmup = sim::milliseconds(5);   // traffic before the update
  sim::Duration drain = sim::milliseconds(20);   // observation after it
  // Fault injection (sim/faults.hpp): switch crashes, control-link outages
  // and frame blackholes at scheduled sim times. An EMPTY schedule leaves
  // every digest bit-identical to a build without the subsystem. A
  // non-empty schedule with controller.liveness_timeout == 0 enables fault
  // tolerance with a default 25 ms timeout (every injected fault must be
  // detectable, or the run cannot drain).
  sim::FaultSchedule faults;
};

// One policy's view of a closed-loop run (an element of
// MultiFlowExecutionResult::flows).
struct ExecutionResult {
  // Timings as the controller saw them, of the request that updated this
  // policy; every member of a merged group reports the group's request.
  controller::UpdateMetrics update;
  dataplane::MonitorReport traffic;        // packet outcome counts
  std::vector<dataplane::ConsistencyMonitor::Bucket> timeline;
  sim::Duration timeline_bucket = 0;
  std::size_t packets_injected = 0;

  double update_ms() const noexcept { return sim::to_ms(update.duration()); }
};

// The run's counters are its two bases, each folded across the engine: the
// coordinator's ControllerStats (controller/stats.hpp; `faults` also holds
// what the executor injected) and the ChannelStats of every control
// channel, both directions.
struct MultiFlowExecutionResult : controller::ControllerStats,
                                  channel::ChannelStats {
  std::vector<ExecutionResult> flows;     // indexed like the input lists
  dataplane::MonitorReport aggregate;     // outcome counts over all flows
  // Order-insensitive digest of every switch's final flow tables; two runs
  // installed the same forwarding state iff their digests match (the
  // batched-vs-unbatched equivalence oracle, and the sharded-vs-single
  // controller one).
  std::uint64_t final_state_digest = 0;
  // Same digest taken right after the initial rules were installed, before
  // any update ran: what a fully rolled-back, non-resubmitted update must
  // leave behind.
  std::uint64_t initial_state_digest = 0;
  sim::Duration makespan = 0;             // first start -> last finish

  double makespan_ms() const noexcept { return sim::to_ms(makespan); }
};

// Executes several policy updates through one controller on a simulated
// control plane - the only closed-loop entry point. Every policy's initial
// route is installed and its probe traffic flows (flow config.flow + i for
// policy i); every request is submitted at the end of the warmup, and the
// run drains `drain` after the last one completes.
//
// `groups` shapes the requests. Empty means one request per policy. Else it
// must partition the policy indexes: a singleton group is that policy's own
// request, and a group of two or more becomes ONE multi-policy request whose
// global rounds interleave the members' rounds (update::merge_policies +
// controller::request_from_merged). Per-policy guarantees carry over because
// each member's rounds stay ordered and barrier-separated. All requests
// compose through the controller's admission policy: up to
// config.controller.max_in_flight progress at once, so max_in_flight = 1
// (the default) is the paper's strictly serializing message queue.
Result<MultiFlowExecutionResult> execute_multiflow(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config = {},
    const std::vector<std::vector<std::size_t>>& groups = {});

}  // namespace tsu::core
