#include "tsu/dataplane/traffic.hpp"

#include <algorithm>
#include <limits>
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
  link_max_ = config_.link_latency.max_delay();
  late_band_ = true;
  for (const switchsim::SimSwitch* sw : switches_)
    if (sw != nullptr && sw->change_lead() <= link_max_) late_band_ = false;

  // kLocal: injection reads source-local state and starts the packet on
  // the ingress switch, which lives on this very shard.
  home_.schedule_at(config_.start, [this]() { inject(); },
                    sim::EventScope::kLocal);
}

void TrafficSource::inject() {
  const sim::SimTime now = home_.now();
  // Past its timeline's limit the run fails once it drains (the executor
  // reports the overflow), so a later packet would be wasted work.
  if (now >= config_.stop || monitor_.timeline_overflowed()) return;

  // Fork in injection order: the packet's latency stream is deterministic
  // however its hops later interleave with other packets'.
  LivePacket live(rng_.fork());
  live.packet.flow = config_.flow;
  live.packet.src_host = config_.ingress;
  live.packet.dst_host = config_.egress;
  live.packet.ttl = config_.ttl;
  live.visited.reset(switches_.size());
  ++injected_;
  Memo memo;
  walk(std::move(live), config_.ingress, &memo);

  // Inside a freeze the packets after this one share its walk (see FROZEN
  // STREAMS); the next event injects the first packet the batch leaves.
  // A stream that batched nothing keeps its relative delay, and with it
  // the queue's constant-delay lane.
  const sim::Duration gap = config_.interarrival.sample(rng_);
  const sim::SimTime next = sim::later(now, gap);
  const sim::SimTime left = batch(memo, next);
  if (left == next) {
    home_.schedule(gap, [this]() { inject(); }, sim::EventScope::kLocal);
  } else {
    home_.schedule_at(left, [this]() { inject(); }, sim::EventScope::kLocal);
  }
}

sim::SimTime TrafficSource::batch(const Memo& memo, sim::SimTime at) {
  // Every hop of a packet injected at `at` arrives by at + walk_max.
  constexpr sim::Duration kNever = std::numeric_limits<sim::Duration>::max();
  const sim::Duration walk_max =
      memo.links != 0 && link_max_ > kNever / memo.links
          ? kNever
          : memo.links * link_max_;
  while (at < config_.stop && sim::later(at, walk_max) < memo.frozen_until &&
         !monitor_.timeline_overflowed()) {
    Rng rng = rng_.fork();
    sim::SimTime arrival = at;
    for (std::uint32_t i = 0; i < memo.links; ++i)
      arrival += config_.link_latency.sample(rng);
    monitor_.record(arrival, memo.outcome);
    ++injected_;
    at = sim::later(at, config_.interarrival.sample(rng_));
  }
  return at;
}

void TrafficSource::walk(LivePacket live, NodeId at, Memo* memo) {
  const std::size_t shard = partition_.shard_of(at);
  sim::Simulator& here = group_.shard(shard);
  const sim::SimTime now = here.now();
  sim::SimTime t = now;
  // What the walk leaves in `memo` if it ends in this event.
  std::uint32_t links = 0;
  sim::SimTime frozen = switches_[at]->frozen_until();
  const auto end = [&](PacketOutcome outcome) {
    monitor_.record(t, outcome);
    if (memo != nullptr) *memo = Memo{outcome, links, frozen};
  };
  NodeId next = kInvalidNode;
  sim::Duration latency = 0;
  if (const std::optional<PacketOutcome> verdict =
          visit(live, at, next, latency)) {
    end(*verdict);
    return;
  }

  // The packet on its first link, kept once the walk goes past it so a
  // native-band walk can rewind there.
  const NodeId first_next = next;
  const sim::SimTime first_arrival = now + latency;
  std::optional<LivePacket> first;
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
    const switchsim::SimSwitch& sw = *switches_[next];
    if (arrival >= sw.stable_until()) break;
    if (!late_band_ && !first.has_value()) first.emplace(live);
    t = arrival;
    ++links;
    frozen = std::min(frozen, sw.frozen_until());
    if (const std::optional<PacketOutcome> verdict =
            visit(live, next, next, latency)) {
      end(*verdict);
      return;
    }
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

std::optional<PacketOutcome> TrafficSource::visit(LivePacket& live,
                                                  NodeId at, NodeId& next,
                                                  sim::Duration& latency) {
  TSU_ASSERT(at < switches_.size() && switches_[at] != nullptr);
  if (config_.waypoint.has_value() && at == *config_.waypoint)
    live.crossed_waypoint = true;

  // A crashed switch forwards nothing until its controller resync restores
  // it to service; traffic hitting it is outage loss, kept apart from the
  // consistency verdicts (fault injection only; always serving otherwise).
  if (!switches_[at]->serving()) return PacketOutcome::kFaultDropped;

  // Look up the live flow table as it stands now; the rule may have
  // changed since the previous hop - that is the whole point of the
  // experiment.
  const std::optional<flow::FlowRule> rule =
      switches_[at]->table().lookup(live.packet);
  if (!rule.has_value() || rule->action.kind == flow::ActionKind::kDrop)
    return PacketOutcome::kBlackholed;
  if (rule->action.kind == flow::ActionKind::kDeliver) {
    // Delivered to the wrong host: treat as a drop.
    if (at != config_.egress) return PacketOutcome::kBlackholed;
    return config_.waypoint.has_value() && !live.crossed_waypoint
               ? PacketOutcome::kBypassedWaypoint
               : PacketOutcome::kDelivered;
  }

  // Forwarding.
  if (live.visited.test(at)) return PacketOutcome::kLooped;
  live.visited.set(at);
  if (--live.packet.ttl <= 0) return PacketOutcome::kTtlExpired;
  next = rule->action.port;
  if (next >= switches_.size() || switches_[next] == nullptr)
    return PacketOutcome::kBlackholed;
  live.packet.in_port = at;
  latency = config_.link_latency.sample(live.rng);
  return std::nullopt;
}

}  // namespace tsu::dataplane
