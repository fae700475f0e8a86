#include "tsu/core/executor.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <unordered_map>

#include "tsu/controller/plan_cache.hpp"
#include "tsu/core/service.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/sim/thread_pool.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/arena.hpp"
#include "tsu/util/log.hpp"
#include "tsu/util/ring.hpp"

namespace tsu::core {

namespace {

flow::FlowRule rule_from_mod(const proto::FlowMod& mod) {
  return flow::FlowRule{mod.match, mod.action, mod.priority, mod.cookie};
}

// The workload's switch co-occurrence graph: one weighted edge per switch
// pair some instance touches together. Input of the greedy-cut partitioner
// and of the cut-size accounting in ShardStats.
std::vector<topo::SwitchAffinity> affinity_edges(
    const std::vector<const update::Instance*>& instances) {
  std::unordered_map<std::uint64_t, std::size_t> weights;
  for (const update::Instance* inst : instances) {
    std::vector<NodeId> touched;
    for (NodeId v = 0; v < inst->node_count(); ++v)
      if (inst->on_old(v) || inst->on_new(v)) touched.push_back(v);
    for (std::size_t i = 0; i < touched.size(); ++i)
      for (std::size_t j = i + 1; j < touched.size(); ++j) {
        const NodeId lo = std::min(touched[i], touched[j]);
        const NodeId hi = std::max(touched[i], touched[j]);
        ++weights[(static_cast<std::uint64_t>(lo) << 32) | hi];
      }
  }
  std::vector<topo::SwitchAffinity> edges;
  edges.reserve(weights.size());
  for (const auto& [key, weight] : weights)
    edges.push_back(topo::SwitchAffinity{
        static_cast<NodeId>(key >> 32),
        static_cast<NodeId>(key & 0xffffffffull), weight});
  // The map iterates in hash order; sort so the partitioner's input - and
  // with it the partition itself - is deterministic.
  std::sort(edges.begin(), edges.end(),
            [](const topo::SwitchAffinity& a, const topo::SwitchAffinity& b) {
              if (a.a != b.a) return a.a < b.a;
              return a.b < b.b;
            });
  return edges;
}

// The switch-to-shard map of config.shards and config.partition. The
// block partitioner carves contiguous NodeId ranges, so it needs the extent
// of the id space the instances use.
topo::SwitchPartition make_partition(
    const std::vector<const update::Instance*>& instances,
    const std::vector<topo::SwitchAffinity>& affinity,
    const controller::ControllerConfig& config) {
  std::size_t node_count = 0;
  for (const update::Instance* inst : instances)
    node_count = std::max(node_count, inst->node_count());
  const std::size_t shard_count = config.shards == 0 ? 1 : config.shards;
  return config.partition == topo::PartitionScheme::kGreedyCut
             ? topo::make_greedy_cut_partition(shard_count, node_count,
                                               affinity)
             : topo::SwitchPartition(shard_count, config.partition,
                                     node_count);
}

// Everything one simulated run needs, wired together: a switch for every
// node the instances touch, with each instance's initial route installed
// (instance i as flow config.flow + i). The switches are partitioned across
// config.controller.shards controller shards; each switch, its duplex
// channel and its owning shard live on that shard's event queue of the
// sharded logical clock.
struct Harness {
  std::vector<topo::SwitchAffinity> affinity;
  sim::ShardedSim sim;
  Rng rng;
  topo::SwitchPartition partition;
  // Per-shard setup arenas own every switch and channel (util/arena.hpp):
  // setup allocates per chunk instead of per object, each shard's objects
  // sit contiguous, and teardown is wholesale. Declared before ctrl so the
  // coordinator (whose send closures point into the arenas) dies first.
  std::vector<std::unique_ptr<util::SetupArena>> arenas;  // by shard
  std::vector<switchsim::SimSwitch*> switches;            // by NodeId
  std::vector<channel::DuplexChannel*> channels;          // creation order
  std::vector<channel::DuplexChannel*> duplex_by_node;    // fault injection
  std::unique_ptr<controller::ShardCoordinator> ctrl;

  // `controller_config` is the configuration the coordinator runs with,
  // which may differ from config.controller (execute_multiflow arms
  // liveness detection for fault schedules).
  Harness(const std::vector<const update::Instance*>& instances,
          const ExecutorConfig& config,
          const controller::ControllerConfig& controller_config)
      : affinity(affinity_edges(instances)),
        sim(controller_config.shards),
        rng(config.seed),
        partition(make_partition(instances, affinity, controller_config)) {
    arenas.reserve(sim.shard_count());
    for (std::size_t s = 0; s < sim.shard_count(); ++s)
      arenas.push_back(std::make_unique<util::SetupArena>());
    ctrl = std::make_unique<controller::ShardCoordinator>(sim, partition,
                                                          controller_config);
    for (const update::Instance* inst : instances)
      for (NodeId v = 0; v < inst->node_count(); ++v)
        if (inst->on_old(v) || inst->on_new(v)) add_switch(v, config);
    for (std::size_t i = 0; i < instances.size(); ++i)
      install_initial(*instances[i], config.flow + i, config.priority);
  }

  // The event queue everything owned by `node`'s shard schedules on.
  sim::Simulator& sim_of(NodeId node) {
    return sim.shard(partition.shard_of(node));
  }

  void add_switch(NodeId node, const ExecutorConfig& config) {
    if (node < switches.size() && switches[node] != nullptr) return;
    if (switches.size() <= node) {
      switches.resize(node + 1, nullptr);
      duplex_by_node.resize(node + 1, nullptr);
    }

    sim::Simulator& shard_sim = sim_of(node);
    util::SetupArena& arena = *arenas[partition.shard_of(node)];
    switchsim::SimSwitch* sw_ptr = arena.make<switchsim::SimSwitch>(
        shard_sim, node, static_cast<DatapathId>(node), config.switch_config,
        rng.fork());
    channel::DuplexChannel* duplex_ptr =
        arena.make<channel::DuplexChannel>(shard_sim, config.channel, rng);
    controller::ShardCoordinator* ctrl_ptr = ctrl.get();

    // Controller->switch deliveries stay on the switch's own shard and
    // only touch its state: safe inside parallel epochs. The reply
    // direction keeps the kShared default: reply processing can complete
    // updates and cross shards through the coordinator.
    duplex_ptr->to_switch.set_delivery_scope(sim::EventScope::kLocal);
    duplex_ptr->to_switch.set_receiver(
        [sw_ptr](const proto::Message& m) { sw_ptr->receive(m); });
    duplex_ptr->to_controller.set_receiver(
        [ctrl_ptr, node](const proto::Message& m) {
          ctrl_ptr->on_message(node, m);
        });
    sw_ptr->set_controller_link([duplex_ptr](const proto::Message& m) {
      duplex_ptr->to_controller.send(m);
    });
    sw_ptr->attach_channels(duplex_ptr->to_switch, duplex_ptr->to_controller);
    ctrl->attach_switch(
        node, [duplex_ptr](std::span<const std::byte> frame, Xid xid) {
          duplex_ptr->to_switch.send_encoded(frame, xid);
        });

    switches[node] = sw_ptr;
    duplex_by_node[node] = duplex_ptr;
    channels.push_back(duplex_ptr);
  }

  void install_initial(const update::Instance& inst, FlowId flow,
                       std::uint16_t priority) {
    for (const controller::RoundOp& op :
         controller::initial_rules(inst, flow, priority)) {
      switches[op.node]->table().add(rule_from_mod(op.mod));
      // Mirror the out-of-band install into the controller's shadow tables
      // (a no-op unless fault tolerance is on) so a crash resync can
      // reconstruct pre-update state too.
      ctrl->seed_shadow(op.node, op.mod);
    }
  }

  // Every control channel's stats, both directions, folded.
  channel::ChannelStats channel_stats() const {
    channel::ChannelStats total;
    for (const channel::DuplexChannel* duplex : channels) {
      total.merge(duplex->to_switch.stats());
      total.merge(duplex->to_controller.stats());
    }
    return total;
  }
};

// FNV-1a mixing of one 64-bit word into a running digest.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t rule_hash(const flow::FlowRule& rule) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix_optional = [&h](const auto& field) {
    h = mix(h, field.has_value() ? 1 : 0);
    h = mix(h, field.has_value() ? static_cast<std::uint64_t>(*field) : 0);
  };
  mix_optional(rule.match.flow);
  mix_optional(rule.match.src_host);
  mix_optional(rule.match.dst_host);
  mix_optional(rule.match.in_port);
  h = mix(h, static_cast<std::uint64_t>(rule.action.kind));
  h = mix(h, rule.action.port);
  h = mix(h, rule.priority);
  h = mix(h, rule.cookie);
  return h;
}

// Digest of every switch's final forwarding state. Within one table the
// per-rule hashes combine commutatively (wrapping sum): rules from
// independent flows may be installed in any interleaving, and the same rule
// SET must digest identically whatever order batching delivered it in.
std::uint64_t final_state_digest(const Harness& harness) {
  std::uint64_t h = 1469598103934665603ull;
  for (NodeId node = 0; node < harness.switches.size(); ++node) {
    const switchsim::SimSwitch* sw = harness.switches[node];
    if (sw == nullptr) continue;
    h = mix(h, node);
    for (const auto& [table_id, table] : sw->tables()) {
      // Emptied tables stay resident for capacity reuse (proto/apply.cpp);
      // logically they are state never touched, so they digest as absent.
      if (table.empty()) continue;
      h = mix(h, table_id);
      h = mix(h, table.size());
      std::uint64_t rules = 0;
      for (const flow::FlowRule& rule : table.rules())
        rules += rule_hash(rule);
      h = mix(h, rules);
    }
  }
  return h;
}

// Per-flow traffic sources feeding one MultiFlowMonitor; flow i of the run
// is config.flow + i.
std::vector<std::unique_ptr<dataplane::TrafficSource>> make_sources(
    Harness& harness, dataplane::MultiFlowMonitor& monitors,
    const std::vector<const update::Instance*>& instances,
    const ExecutorConfig& config) {
  std::vector<std::unique_ptr<dataplane::TrafficSource>> sources;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const FlowId flow = config.flow + i;
    dataplane::ConsistencyMonitor& monitor = monitors.monitor(flow);
    if (!config.with_traffic) continue;
    const update::Instance& inst = *instances[i];
    dataplane::TrafficConfig traffic;
    traffic.flow = flow;
    traffic.ingress = inst.source();
    traffic.egress = inst.destination();
    traffic.waypoint = inst.waypoint();
    traffic.interarrival = config.traffic_interarrival;
    traffic.link_latency = config.link_latency;
    traffic.ttl = config.ttl;
    traffic.start = 0;
    traffic.stop = std::numeric_limits<sim::SimTime>::max();
    // A flow's injection lives on its ingress switch's shard queue; hops
    // then follow the packet onto whichever shard owns each switch, with
    // cross-shard hand-offs through the group mailboxes (traffic.hpp).
    sources.push_back(std::make_unique<dataplane::TrafficSource>(
        harness.sim, harness.partition, harness.switches, traffic,
        harness.rng.fork(), monitor));
  }
  return sources;
}

// The lower bound on any cross-shard interaction a kLocal event can
// create: switch replies mature one channel latency after the send, and a
// packet's next hop one link latency after the current one. The parallel
// stepper widens its epochs to exactly this bound (sim/sharded.hpp);
// unbounded-below latency models collapse it to 0, which degenerates to
// sequential stepping - correct, just not concurrent.
sim::Duration cross_shard_lookahead(const ExecutorConfig& config) {
  sim::Duration lookahead = config.channel.latency.min_delay();
  if (config.with_traffic)
    lookahead = std::min(lookahead, config.link_latency.min_delay());
  return lookahead;
}

// Promises every switch that no FlowMod installs there, and no switch
// crashes or changes its serving state, before `until`; each switch aborts
// the run on a change inside the promise (switchsim/switch.hpp). Probe
// streams batch the packets whose walks end before it (FROZEN STREAMS in
// dataplane/traffic.hpp). Only runs without fault tolerance may freeze:
// its timers, retries, rollbacks, resubmissions and resyncs send FlowMods
// at times no caller plans.
void freeze(Harness& harness, sim::SimTime until) {
  for (switchsim::SimSwitch* sw : harness.switches)
    if (sw != nullptr) sw->freeze_until(until);
}

// How a run loop went: the pool lanes it used (1 when sequential) and its
// wall-clock cost (steady clock; the simulation never reads wall time).
struct RunTiming {
  std::size_t threads = 1;
  double wall_ms = 0;
};

// The simulated time no run steps past. Every delay saturates at
// sim::kMaxDuration, so an event that fires by this limit schedules at most
// 2^62 ns later and the 64-bit clock cannot wrap.
constexpr sim::SimTime kRunLimit = 2 * sim::kMaxDuration;

// Steps the harness until every queue drains, sequentially or in parallel
// epochs per controller_config.exec. A run with events still pending at
// kRunLimit is an error.
Result<RunTiming> run_harness(
    Harness& harness, const ExecutorConfig& config,
    const controller::ControllerConfig& controller_config) {
  const bool parallel = controller_config.exec == sim::ExecMode::kParallel;
  RunTiming timing;
  // An epoch dispatches exactly shard_count tasks, so more lanes than
  // shards would only sleep; the clamp also keeps a typo'd `threads`
  // from asking the OS for an absurd thread count.
  if (parallel)
    timing.threads =
        controller_config.threads != 0
            ? std::min(controller_config.threads, harness.sim.shard_count())
            : std::min(harness.sim.shard_count(),
                       sim::ThreadPool::hardware_threads());
  const auto wall_start = std::chrono::steady_clock::now();
  if (parallel) {
    sim::ThreadPool pool(timing.threads);
    harness.sim.run_parallel(pool, cross_shard_lookahead(config), kRunLimit);
  } else {
    harness.sim.run(kRunLimit);
  }
  timing.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  if (harness.sim.pending() != 0)
    return make_error(Errc::kOutOfRange,
                      "simulation reached the 2^63 ns clock limit with work "
                      "outstanding");
  return timing;
}

// The controller requests of a closed-loop run in submission order (see
// execute_multiflow's `groups`); request_of[i] is the request that updates
// policy i.
Result<std::vector<controller::UpdateRequest>> make_requests(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const std::vector<std::vector<std::size_t>>& groups,
    const ExecutorConfig& config, std::vector<std::size_t>& request_of) {
  const std::size_t count = groups.empty() ? instances.size() : groups.size();
  std::vector<controller::UpdateRequest> requests;
  requests.reserve(count);
  request_of.assign(instances.size(), 0);
  // Groups must partition the policy indexes.
  std::vector<bool> seen(instances.size(), false);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t single = r;
    const std::span<const std::size_t> group =
        groups.empty() ? std::span<const std::size_t>(&single, 1)
                       : std::span<const std::size_t>(groups[r]);
    if (group.empty())
      return make_error(Errc::kInvalidArgument, "empty group");
    for (const std::size_t i : group) {
      if (i >= instances.size() || seen[i])
        return make_error(Errc::kInvalidArgument,
                          "groups must partition the policy indexes");
      seen[i] = true;
      request_of[i] = r;
    }
    if (group.size() == 1) {
      const std::size_t i = group.front();
      requests.push_back(controller::request_from_schedule(
          *instances[i], *schedules[i], config.flow + i, config.priority,
          config.interval));
      continue;
    }
    std::vector<const update::Instance*> members;
    std::vector<const update::Schedule*> member_schedules;
    std::vector<FlowId> flows;
    for (const std::size_t i : group) {
      members.push_back(instances[i]);
      member_schedules.push_back(schedules[i]);
      flows.push_back(config.flow + i);
    }
    Result<update::MergedSchedule> merged =
        update::merge_policies(members, member_schedules);
    if (!merged.ok()) return merged.error();
    requests.push_back(controller::request_from_merged(
        members, member_schedules, merged.value(), flows, config.priority,
        config.interval));
  }
  for (const bool covered : seen)
    if (!covered)
      return make_error(Errc::kInvalidArgument,
                        "groups must cover every policy");
  return requests;
}

// The executor fields both entry points check before wiring a harness.
Status validate_executor_config(const ExecutorConfig& config) {
  if (config.controller.shards > proto::kMaxXidShards)
    return make_error(Errc::kOutOfRange, "shards must be in [1, 256]");
  // Probes injected 0 ns apart never let the clock advance.
  if (config.with_traffic && config.traffic_interarrival.mean() < 1)
    return make_error(Errc::kInvalidArgument,
                      "traffic interarrival mean must be at least 1 ns");
  return Status::ok_status();
}

}  // namespace

Result<MultiFlowExecutionResult> execute_multiflow(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config,
    const std::vector<std::vector<std::size_t>>& groups) {
  if (instances.size() != schedules.size() || instances.empty())
    return make_error(Errc::kInvalidArgument,
                      "need matching, non-empty instance/schedule lists");
  if (const Status valid = validate_executor_config(config); !valid.ok())
    return valid.error();
  std::vector<std::size_t> request_of;
  Result<std::vector<controller::UpdateRequest>> built =
      make_requests(instances, schedules, groups, config, request_of);
  if (!built.ok()) return built.error();
  std::vector<controller::UpdateRequest> requests = std::move(built).value();

  // A non-empty fault schedule needs detection to be on, or a crashed
  // switch's lost barrier would stall its update forever and the run could
  // never drain. 25 ms comfortably exceeds a healthy barrier round-trip
  // under the default channel latencies.
  controller::ControllerConfig controller_config = config.controller;
  if (!config.faults.empty() && controller_config.liveness_timeout == 0)
    controller_config.liveness_timeout = sim::milliseconds(25);

  Harness harness(instances, config, controller_config);
  const std::uint64_t initial_digest = final_state_digest(harness);

  // Fault injection (sim/faults.hpp): each scheduled fault becomes events
  // on the target switch's shard. A crash (optionally retaining the TCAM)
  // takes the switch and both control-channel directions down, then brings
  // them back `down_for` later and the switch announces a fresh session; a
  // link outage does the same to the channels only; a blackhole silently
  // eats the next frames towards the switch. Every fault schedules its own
  // recovery, so runs always drain. An empty schedule adds NO events and
  // keeps every digest bit-identical. `injected` counts the faults, the
  // frames they cost and each outage's recovery time; the result merges it
  // into the controller's recovery counters.
  sim::FaultStats injected;
  std::vector<sim::SimTime> down_at(harness.switches.size(), 0);
  // uint8_t, not bool: neighbouring vector<bool> bits share a byte, which
  // TSan would flag if fault handlers ever ran on different shards' lanes.
  std::vector<std::uint8_t> is_down(harness.switches.size(), 0);
  if (!config.faults.empty()) {
    for (const sim::FaultEvent& e : config.faults.events())
      if (e.node >= harness.switches.size() ||
          harness.switches[e.node] == nullptr)
        return make_error(Errc::kInvalidArgument,
                          "fault schedule targets an unknown switch");
    // A barrier-confirmed resync returns the switch to service (its tables
    // provably match the shadow again) and clocks the recovery.
    harness.ctrl->set_on_switch_resynced([&](NodeId node) {
      harness.switches[node]->set_serving(true);
      if (is_down[node]) {
        is_down[node] = false;
        injected.recovery_ms.push_back(
            sim::to_ms(harness.sim_of(node).now() - down_at[node]));
      }
    });
    for (const sim::FaultEvent& e : config.faults.events()) {
      const std::size_t shard = harness.partition.shard_of(e.node);
      channel::DuplexChannel* duplex = harness.duplex_by_node[e.node];
      switchsim::SimSwitch* sw = harness.switches[e.node];
      switch (e.kind) {
        case sim::FaultKind::kSwitchCrash:
          sw->expect_crash(e.at);
          harness.sim.schedule_on(shard, e.at, [&, duplex, sw, e]() {
            ++injected.crashes;
            down_at[e.node] = harness.sim_of(e.node).now();
            is_down[e.node] = true;
            duplex->to_switch.set_down(true);
            duplex->to_controller.set_down(true);
            sw->crash(e.lose_state);
          });
          harness.sim.schedule_on(shard, e.at + e.down_for,
                                  [duplex, sw]() {
                                    duplex->to_switch.set_down(false);
                                    duplex->to_controller.set_down(false);
                                    sw->restart();
                                  });
          break;
        case sim::FaultKind::kLinkDown:
          harness.sim.schedule_on(shard, e.at, [&, duplex, e]() {
            ++injected.link_downs;
            down_at[e.node] = harness.sim_of(e.node).now();
            is_down[e.node] = true;
            duplex->to_switch.set_down(true);
            duplex->to_controller.set_down(true);
          });
          // The switch itself never died (its tables still forward; it
          // stays in service), but in-flight acks are gone - announcing a
          // fresh session makes the controller re-fence the uncertainty.
          harness.sim.schedule_on(shard, e.at + e.down_for,
                                  [duplex, sw]() {
                                    duplex->to_switch.set_down(false);
                                    duplex->to_controller.set_down(false);
                                    sw->announce();
                                  });
          break;
        case sim::FaultKind::kBlackhole:
          harness.sim.schedule_on(shard, e.at, [&, duplex, e]() {
            ++injected.blackholes;
            duplex->to_switch.drop_next(e.frames);
          });
          break;
      }
    }
  }

  dataplane::MultiFlowMonitor monitors;
  std::vector<std::unique_ptr<dataplane::TrafficSource>> sources =
      make_sources(harness, monitors, instances, config);

  // Requests are identified in the completed list by their key flow (a
  // request's `flow` is the first flow it updates; each policy belongs to
  // exactly one request, so key flows are unique).
  const std::size_t request_count = requests.size();
  std::vector<FlowId> key_flows;
  key_flows.reserve(request_count);
  for (const controller::UpdateRequest& r : requests)
    key_flows.push_back(r.flow);

  // Collect completions as they happen (the controller's own retained
  // window is a bounded ring, so a closed-loop run with more requests than
  // the ring capacity must not read results back from it), and stop
  // injecting `drain` after the last update completes.
  std::vector<controller::UpdateMetrics> done_metrics;
  done_metrics.reserve(request_count);
  const bool can_freeze =
      config.faults.empty() && controller_config.liveness_timeout == 0;
  harness.ctrl->set_on_update_done(
      [&](const controller::UpdateMetrics& metrics) {
        done_metrics.push_back(metrics);
        if (done_metrics.size() != request_count) return;
        // Give in-flight packets and the monitor a drain window.
        // (set_stop is monotone: injection checks the new bound.)
        for (auto& source : sources)
          if (source) source->set_stop(harness.sim.now() + config.drain);
        // Frozen for the rest of the run (none steps past kRunLimit): a
        // barrier reply has fenced every FlowMod of every request, and
        // nothing else sends one.
        if (can_freeze) freeze(harness, kRunLimit);
      });

  // Frozen until the warmup ends: no request is submitted before then, so
  // no FlowMod is in flight.
  if (can_freeze) freeze(harness, config.warmup);
  for (auto& source : sources)
    if (source) source->start();

  // Submit all requests at the end of the warmup (the paper's queue: they
  // arrive together; how many progress at once is the controller's
  // max_in_flight under its admission policy). Each request's submission
  // event lands on its HOME shard - the lowest shard its FlowMods touch -
  // so warmup submissions no longer serialize through shard 0's queue;
  // merged order at the shared warmup instant stays deterministic (shard
  // ascending, then input order within a shard). Submission events are
  // kShared: submitting reaches the coordinator and can start work on
  // several shards at once.
  std::vector<std::vector<std::size_t>> by_home(harness.sim.shard_count());
  for (std::size_t i = 0; i < request_count; ++i) {
    std::size_t home = harness.sim.shard_count();
    for (const std::vector<controller::RoundOp>& round : requests[i].rounds)
      for (const controller::RoundOp& op : round)
        home = std::min(home, harness.partition.shard_of(op.node));
    by_home[home == harness.sim.shard_count() ? 0 : home].push_back(i);
  }
  for (std::size_t s = 0; s < by_home.size(); ++s) {
    if (by_home[s].empty()) continue;
    harness.sim.schedule_on(s, config.warmup, [&, s]() {
      for (const std::size_t i : by_home[s])
        harness.ctrl->submit(std::move(requests[i]));
    });
  }

  const Result<RunTiming> run = run_harness(harness, config, controller_config);
  if (!run.ok()) return run.error();
  const RunTiming& timing = run.value();

  if (!harness.ctrl->idle() || done_metrics.size() != request_count)
    return make_error(Errc::kFailedPrecondition,
                      "simulation drained before all updates completed");
  for (const auto& [flow, monitor] : monitors.flows()) {
    if (!monitor.timeline_overflowed()) continue;
    constexpr std::size_t kLimit =
        dataplane::ConsistencyMonitor::kMaxTimelineBuckets;
    std::ostringstream message;
    message << "probe outcome of flow " << flow
            << " landed past the timeline's limit of " << kLimit
            << " buckets (" << sim::to_ms(monitor.bucket_width()) * kLimit
            << " ms of simulated time)";
    return make_error(Errc::kOutOfRange, message.str());
  }

  // Completion order need not match submission order when updates run
  // concurrently; route metrics back to their request by key flow.
  std::unordered_map<FlowId, const controller::UpdateMetrics*> by_flow;
  for (const controller::UpdateMetrics& m : done_metrics)
    by_flow[m.flow] = &m;
  std::vector<const controller::UpdateMetrics*> metrics_of;
  metrics_of.reserve(request_count);
  sim::SimTime first_start = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last_finish = 0;
  for (const FlowId key : key_flows) {
    const auto it = by_flow.find(key);
    if (it == by_flow.end())
      return make_error(Errc::kFailedPrecondition,
                        "no completed update for request");
    metrics_of.push_back(it->second);
    first_start = std::min(first_start, it->second->started);
    last_finish = std::max(last_finish, it->second->finished);
  }

  MultiFlowExecutionResult result;
  static_cast<controller::ControllerStats&>(result) = harness.ctrl->stats();
  static_cast<channel::ChannelStats&>(result) = harness.channel_stats();
  result.flows.resize(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ExecutionResult& flow = result.flows[i];
    flow.update = *metrics_of[request_of[i]];
    const dataplane::ConsistencyMonitor* monitor =
        monitors.find(config.flow + i);
    TSU_ASSERT(monitor != nullptr);
    flow.traffic = monitor->report();
    flow.timeline = monitor->timeline();
    flow.timeline_bucket = monitor->bucket_width();
    if (config.with_traffic && i < sources.size() && sources[i])
      flow.packets_injected = sources[i]->injected();
  }
  result.aggregate = monitors.aggregate();
  result.sharding.exec = controller_config.exec;
  result.sharding.threads = timing.threads;
  result.sharding.partition_cut_weight =
      harness.partition.cut_weight(harness.affinity);
  result.sharding.wall_ms = timing.wall_ms;
  // Frames lost to faults: on the channels, and in crashed switches.
  injected.frames_lost = result.frames_dropped;
  for (const switchsim::SimSwitch* sw : harness.switches)
    if (sw != nullptr) injected.frames_lost += sw->frames_dropped();
  result.faults.merge(injected);
  result.final_state_digest = final_state_digest(harness);
  result.initial_state_digest = initial_digest;
  result.makespan = last_finish - first_start;
  return result;
}

Result<ServiceResult> execute_service(const ServiceConfig& config) {
  ExecutorConfig exec = config.exec;
  // Consecutive updates of one template share a rule footprint and MUST
  // serialize, or a later submission races the earlier one's rounds and
  // leaves the data plane inconsistent (the reverse direction assumes the
  // forward update's end state). Blind admission cannot give that
  // guarantee, so service mode upgrades it to the conflict DAG.
  if (exec.controller.admission == controller::AdmissionPolicy::kBlind)
    exec.controller.admission = controller::AdmissionPolicy::kConflictAware;
  if (config.flows == 0)
    return make_error(Errc::kInvalidArgument, "need at least one template");
  if (config.pool_switches < kMinPoolSwitches)
    return make_error(Errc::kInvalidArgument,
                      "pool_switches must be at least 6");
  if (config.snapshot_window > kMaxSnapshotWindow)
    return make_error(Errc::kOutOfRange,
                      "snapshot_window must be at most 65536");
  if (config.max_pending == 0)
    return make_error(Errc::kInvalidArgument,
                      "max_pending must be at least 1");
  if (config.horizon == 0 && config.target_completions == 0)
    return make_error(Errc::kInvalidArgument,
                      "service needs a horizon or a completion target - "
                      "arrivals would never stop");
  if (!(config.arrival_rate_per_sec > 0 &&
        config.arrival_rate_per_sec <= kMaxArrivalRate))
    return make_error(Errc::kOutOfRange,
                      "arrival rate must be in (0, 1e9] per second");
  if (!exec.faults.empty())
    return make_error(Errc::kInvalidArgument,
                      "fault injection is not supported in service mode");
  if (const Status valid = validate_executor_config(exec); !valid.ok())
    return valid.error();

  // Poisson arrivals: the rate bound keeps the mean gap at 1 ns or more.
  const sim::LatencyModel arrival_gap = sim::LatencyModel::exponential(
      sim::from_ns(1e9 / config.arrival_rate_per_sec));

  // Template pool: forward (old -> new) schedules, plus the reverse
  // direction planned once up front. Submission flips per template, and
  // same-template requests share a rule footprint, so admission serializes
  // them in arrival order - the data plane always transitions from the
  // state the submitted direction assumes.
  Result<topo::PlannedPoolWorkload> pool_result =
      topo::planned_pool_workload(config.flows, config.pool_switches);
  if (!pool_result.ok()) return pool_result.error();
  topo::PlannedPoolWorkload pool = std::move(pool_result).value();

  std::vector<update::Instance> rev_instances;
  std::vector<update::Schedule> rev_schedules;
  rev_instances.reserve(pool.instances.size());
  rev_schedules.reserve(pool.instances.size());
  for (const update::Instance& inst : pool.instances) {
    Result<update::Instance> rev = update::Instance::make(
        inst.new_path(), inst.old_path(), inst.waypoint());
    if (!rev.ok()) return rev.error();
    Result<update::Schedule> sched = update::plan_peacock(rev.value());
    if (!sched.ok()) return sched.error();
    rev_instances.push_back(std::move(rev).value());
    rev_schedules.push_back(std::move(sched).value());
  }

  Harness harness(pool.instance_ptrs, exec, exec.controller);

  // bucket_width 0: aggregate outcome counts only. An open-loop horizon is
  // unbounded, so the per-bucket timeline must stay disabled.
  dataplane::MultiFlowMonitor monitors(0);
  std::vector<std::unique_ptr<dataplane::TrafficSource>> sources =
      make_sources(harness, monitors, pool.instance_ptrs, exec);

  // Forked AFTER every per-switch/per-source fork so the control-plane
  // streams match a run with different service parameters.
  Rng service_rng = harness.rng.fork();

  struct PendingRequest {
    std::size_t tmpl = 0;
    sim::SimTime arrived = 0;
  };
  // The pending FIFO starts at min(max_pending, 1024) slots, so the
  // default configuration's submission path never allocates for it.
  util::FlatRing<PendingRequest> pending;
  pending.reserve(std::min<std::size_t>(config.max_pending, 1024));
  std::vector<std::uint64_t> flip(config.flows, 0);

  // Compiled-plan cache (controller/plan_cache.hpp), keyed by
  // 2 * template + direction. Not by the instance's paths: the compiled
  // request also carries the template's flow id, and templates may share
  // paths (topo::pool_workload repeats them once the pool outgrows its
  // switches). Submissions below consult the cache with the coordinator's
  // current resync generation: any fault-driven shadow rewrite bumps it
  // and stale pre-encoded frames are recompiled, never served.
  controller::PlanCache plan_cache;

  ServiceStats stats;
  bool arrivals_done = false;
  bool pumping = false;

  // How many requests may sit in the controller (queued + active) before
  // the pump holds the rest in the pending queue: deep enough to keep
  // every in-flight slot of every shard fed.
  const std::size_t mif =
      exec.controller.max_in_flight == 0 ? 1 : exec.controller.max_in_flight;
  const std::size_t depth_limit = mif > (std::size_t{1} << 20)
                                      ? (std::size_t{1} << 20)
                                      : 2 * mif * harness.sim.shard_count();

  const auto controller_depth = [&]() {
    return harness.ctrl->queued() + harness.ctrl->in_flight();
  };
  // The coordinator's completion log counts every completion before the
  // done callback below fires; the service reads its counts from there.
  const controller::CompletionStats& done = harness.ctrl->completions().stats();
  // The service counters with the completion log's and the plan cache's
  // read in, as snapshots and the result report them.
  const auto current_stats = [&]() {
    ServiceStats now = stats;
    now.completed = done.count;
    now.aborted = done.aborted;
    now.plan_compiles = plan_cache.compiles();
    now.plan_hits = plan_cache.hits();
    now.plan_invalidations = plan_cache.invalidations();
    return now;
  };

  const auto submit_head = [&]() {
    const PendingRequest p = pending.front();
    pending.pop_front();
    const bool reverse = (flip[p.tmpl] & 1) != 0;
    ++flip[p.tmpl];
    // Warm path: reuse the compiled plan - no request materialization, no
    // re-encoding; the controller patches xids into the cached frames.
    // Cold path: build the template's canonical request (the per-submission
    // arrival travels with submit_plan) and compile it once.
    const std::uint64_t key = 2 * p.tmpl + (reverse ? 1 : 0);
    const std::uint64_t generation = harness.ctrl->resync_generation();
    std::shared_ptr<const controller::CompiledPlan> plan =
        plan_cache.lookup(key, generation);
    if (plan == nullptr) {
      controller::UpdateRequest req = controller::request_from_schedule(
          reverse ? rev_instances[p.tmpl] : pool.instances[p.tmpl],
          reverse ? rev_schedules[p.tmpl] : pool.schedules[p.tmpl],
          static_cast<FlowId>(exec.flow + p.tmpl), exec.priority,
          exec.interval);
      plan = controller::compile_plan(std::move(req), generation);
      plan_cache.store(key, plan);
    }
    harness.ctrl->submit_plan(std::move(plan), p.arrived);
    ++stats.submitted;
  };

  // Releases the pending queue's head into the controller while it holds
  // fewer than depth_limit requests.
  const auto pump = [&]() {
    if (pumping) return;  // submit can complete and re-enter synchronously
    pumping = true;
    while (!pending.empty() && controller_depth() < depth_limit)
      submit_head();
    stats.peak_controller_depth =
        std::max(stats.peak_controller_depth, controller_depth());
    pumping = false;
  };

  // Once arrivals have stopped and every accepted request completed, give
  // in-flight packets a drain window; with traffic off the event queue
  // simply empties.
  const auto maybe_finish = [&]() {
    if (!arrivals_done || !pending.empty() || stats.submitted != done.count)
      return;
    for (auto& source : sources)
      if (source) source->set_stop(harness.sim.now() + exec.drain);
    // Frozen for the rest of the run (none steps past kRunLimit):
    // arrivals have stopped and a barrier reply has fenced every FlowMod
    // of every accepted request. Service mode rejects fault schedules, so
    // only liveness timers could send more.
    if (exec.controller.liveness_timeout == 0) freeze(harness, kRunLimit);
  };
  const auto finish_arrivals = [&]() {
    arrivals_done = true;
    maybe_finish();
  };

  std::function<void()> arrival_fn;
  const auto schedule_next_arrival = [&]() {
    if (config.target_completions != 0 &&
        stats.accepted >= config.target_completions) {
      finish_arrivals();
      return;
    }
    const sim::Duration gap = arrival_gap.sample(service_rng);
    if (config.horizon != 0 && harness.sim.now() + gap > config.horizon) {
      finish_arrivals();
      return;
    }
    harness.sim.schedule_on(0, gap, [&]() { arrival_fn(); });
  };
  arrival_fn = [&]() {
    ++stats.arrivals;
    if (pending.size() >= config.max_pending) {
      // Load shedding: a full pending queue rejects, never buffers - the
      // bound that keeps overload memory flat.
      ++stats.rejected;
    } else {
      pending.push_back(
          PendingRequest{service_rng.index(config.flows), harness.sim.now()});
      ++stats.accepted;
      stats.peak_pending = std::max(stats.peak_pending, pending.size());
    }
    pump();
    schedule_next_arrival();
  };

  harness.ctrl->set_on_update_done([&](const controller::UpdateMetrics&) {
    pump();
    maybe_finish();
  });

  // Live snapshot feed: a bounded ring of the last snapshot_window
  // snapshots; the event stops rescheduling itself once the run is done,
  // so it never keeps the simulation alive.
  std::vector<ServiceSnapshot> snap_ring;
  std::size_t snap_next = 0;
  std::uint64_t snap_prev_completed = 0;
  std::function<void()> snapshot_fn;
  if (config.snapshot_interval > 0 && config.snapshot_window > 0) {
    snap_ring.reserve(config.snapshot_window);
    snapshot_fn = [&]() {
      ServiceSnapshot s;
      static_cast<ServiceStats&>(s) = current_stats();
      s.at = harness.sim.now();
      s.pending = pending.size();
      s.controller_depth = controller_depth();
      s.steady_state_entries = harness.ctrl->steady_state_entries();
      s.window_throughput_per_sec =
          static_cast<double>(done.count - snap_prev_completed) * 1e9 /
          static_cast<double>(config.snapshot_interval);
      snap_prev_completed = done.count;
      if (done.count > 0) {
        s.p50_duration_ms = done.duration_ns.quantile(0.5) / 1e6;
        s.p99_duration_ms = done.duration_ns.quantile(0.99) / 1e6;
        s.p50_wait_ms = done.wait_ns.quantile(0.5) / 1e6;
        s.p99_wait_ms = done.wait_ns.quantile(0.99) / 1e6;
      }
      if (snap_ring.size() < config.snapshot_window) {
        snap_ring.push_back(s);
      } else {
        snap_ring[snap_next] = s;
        snap_next = (snap_next + 1) % config.snapshot_window;
      }
      if (config.on_snapshot) config.on_snapshot(s);
      if (!(arrivals_done && pending.empty() &&
            stats.submitted == done.count))
        harness.sim.schedule_on(0, config.snapshot_interval,
                                [&]() { snapshot_fn(); });
    };
    harness.sim.schedule_on(0, config.snapshot_interval,
                            [&]() { snapshot_fn(); });
  }

  if (config.tune) config.tune(*harness.ctrl);

  for (auto& source : sources)
    if (source) source->start();
  schedule_next_arrival();

  const Result<RunTiming> run = run_harness(harness, exec, exec.controller);
  if (!run.ok()) return run.error();
  const RunTiming& timing = run.value();

  if (!harness.ctrl->idle() || stats.submitted != done.count ||
      !pending.empty())
    return make_error(Errc::kFailedPrecondition,
                      "service drained with work outstanding");

  ServiceResult result;
  result.stats = current_stats();
  static_cast<channel::ChannelStats&>(result) = harness.channel_stats();
  const controller::CompletionLog& log = harness.ctrl->completions();
  result.completions = done;
  if (!log.recent().empty()) {
    result.recent.reserve(log.recent().size());
    for (std::size_t i = log.recent().size(); i-- > 0;)
      result.recent.push_back(log.recent_back(i));  // oldest -> newest
  }
  result.traffic = monitors.aggregate();
  if (!snap_ring.empty()) {
    result.snapshots.reserve(snap_ring.size());
    for (std::size_t i = 0; i < snap_ring.size(); ++i)
      result.snapshots.push_back(
          snap_ring[(snap_next + i) % snap_ring.size()]);
  }
  result.steady_state_entries_final = harness.ctrl->steady_state_entries();
  result.final_state_digest = final_state_digest(harness);
  result.sim_duration = done.last_finished;
  result.wall_ms = timing.wall_ms;
  for (std::size_t s = 0; s < harness.ctrl->shard_count(); ++s)
    result.retired_xids += harness.ctrl->shard(s).retired_xids();
  return result;
}

}  // namespace tsu::core
