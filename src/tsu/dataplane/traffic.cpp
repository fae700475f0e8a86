#include "tsu/dataplane/traffic.hpp"

#include <optional>

#include "tsu/util/log.hpp"

namespace tsu::dataplane {

TrafficSource::TrafficSource(sim::ShardedSim& group,
                             const topo::SwitchPartition& partition,
                             std::vector<switchsim::SimSwitch*> switches,
                             TrafficConfig config, Rng rng,
                             ConsistencyMonitor& monitor)
    : group_(group), partition_(partition),
      home_(group.shard(partition.shard_of(config.ingress))),
      switches_(std::move(switches)), config_(config), rng_(rng),
      monitor_(monitor) {
  TSU_ASSERT(config_.ingress < switches_.size() &&
             switches_[config_.ingress] != nullptr);
  TSU_ASSERT(config_.egress < switches_.size() &&
             switches_[config_.egress] != nullptr);
}

void TrafficSource::start() {
  // The late band keeps a queued hop's order against same-instant rule
  // changes only if every change lands more than one link after the event
  // that queued it (see the file comment).
  const sim::Duration link_max = config_.link_latency.max_delay();
  late_band_ = true;
  for (const switchsim::SimSwitch* sw : switches_)
    if (sw != nullptr && sw->change_lead() <= link_max) late_band_ = false;

  // kLocal: injection reads source-local state and starts the packet on
  // the ingress switch, which lives on this very shard.
  home_.schedule_at(config_.start, [this]() { inject(); },
                    sim::EventScope::kLocal);
}

void TrafficSource::inject() {
  if (home_.now() >= config_.stop) return;

  // Fork in injection order: the packet's latency stream is deterministic
  // however its hops later interleave with other packets'.
  LivePacket live(rng_.fork());
  live.packet.flow = config_.flow;
  live.packet.src_host = config_.ingress;
  live.packet.dst_host = config_.egress;
  live.packet.ttl = config_.ttl;
  live.visited.reset(switches_.size());
  ++injected_;
  walk(std::move(live), config_.ingress);

  home_.schedule(config_.interarrival.sample(rng_), [this]() { inject(); },
                 sim::EventScope::kLocal);
}

void TrafficSource::walk(LivePacket live, NodeId at) {
  const std::size_t shard = partition_.shard_of(at);
  sim::Simulator& here = group_.shard(shard);
  const sim::SimTime now = here.now();
  NodeId next = kInvalidNode;
  sim::Duration latency = 0;
  if (!visit(live, at, now, next, latency)) return;

  // The packet on its first link, kept once the walk goes past it so a
  // native-band walk can rewind there.
  const NodeId first_next = next;
  const sim::SimTime first_arrival = now + latency;
  std::optional<LivePacket> first;
  sim::SimTime t = now;
  while (true) {
    const sim::SimTime arrival = t + latency;
    const std::size_t next_shard = partition_.shard_of(next);
    if (next_shard != shard) {
      // Cross-shard hand-off: a post, never a push into the owner's queue
      // mid-step (see sim/sharded.hpp).
      group_.post(next_shard, shard, arrival, resume(std::move(live), next));
      return;
    }
    // Strictly before: a change at exactly `arrival` may sort before the
    // hop.
    if (arrival >= switches_[next]->stable_until()) break;
    if (!late_band_ && !first.has_value()) first.emplace(live);
    t = arrival;
    if (!visit(live, next, t, next, latency)) return;
  }

  // The bound stopped the walk at `next`.
  if (late_band_) {
    group_.post(shard, shard, t + latency, resume(std::move(live), next));
    return;
  }
  // Native band: only the first hop is queued where hop-by-hop forwarding
  // would queue it. kLocal: the hop reads only tables this shard owns.
  here.schedule(first_arrival - now,
                resume(first.has_value() ? std::move(*first) : std::move(live),
                       first_next),
                sim::EventScope::kLocal);
}

sim::EventFn TrafficSource::resume(LivePacket live, NodeId at) {
  auto hop = [this, live = std::move(live), at]() mutable {
    walk(std::move(live), at);
  };
  // The resumed walk is THE hot-path event: it must stay within the event
  // fabric's inline buffer or every queued hop allocates again.
  static_assert(sim::EventFn::fits_inline<decltype(hop)>(),
                "hop closure outgrew the inline event buffer");
  return hop;
}

bool TrafficSource::visit(LivePacket& live, NodeId at, sim::SimTime t,
                          NodeId& next, sim::Duration& latency) {
  TSU_ASSERT(at < switches_.size() && switches_[at] != nullptr);
  if (config_.waypoint.has_value() && at == *config_.waypoint)
    live.crossed_waypoint = true;

  // A crashed switch forwards nothing until its controller resync restores
  // it to service; traffic hitting it is outage loss, kept apart from the
  // consistency verdicts (fault injection only; always serving otherwise).
  if (!switches_[at]->serving()) {
    monitor_.record(t, PacketOutcome::kFaultDropped);
    return false;
  }

  // Look up the live flow table as it stands at `t`; the rule may have
  // changed since the previous hop - that is the whole point of the
  // experiment.
  const std::optional<flow::FlowRule> rule =
      switches_[at]->table().lookup(live.packet);
  if (!rule.has_value() || rule->action.kind == flow::ActionKind::kDrop) {
    monitor_.record(t, PacketOutcome::kBlackholed);
    return false;
  }
  if (rule->action.kind == flow::ActionKind::kDeliver) {
    if (at == config_.egress) {
      const bool needs_waypoint = config_.waypoint.has_value();
      monitor_.record(t, needs_waypoint && !live.crossed_waypoint
                             ? PacketOutcome::kBypassedWaypoint
                             : PacketOutcome::kDelivered);
    } else {
      // Delivered to the wrong host: treat as a drop.
      monitor_.record(t, PacketOutcome::kBlackholed);
    }
    return false;
  }

  // Forwarding.
  if (live.visited.test(at)) {
    monitor_.record(t, PacketOutcome::kLooped);
    return false;
  }
  live.visited.set(at);
  if (--live.packet.ttl <= 0) {
    monitor_.record(t, PacketOutcome::kTtlExpired);
    return false;
  }
  next = rule->action.port;
  if (next >= switches_.size() || switches_[next] == nullptr) {
    monitor_.record(t, PacketOutcome::kBlackholed);
    return false;
  }
  live.packet.in_port = at;
  latency = config_.link_latency.sample(live.rng);
  return true;
}

}  // namespace tsu::dataplane
