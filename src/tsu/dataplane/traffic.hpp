// Data-plane traffic: a host injects packets while the update is running;
// each packet hops switch-to-switch against the *live* flow tables (which
// mutate underneath it as FlowMods complete), so transient inconsistencies
// show up exactly as they would in the Mininet demo: loops, drops, and
// packets that slip past the waypoint.
//
// THE WALK. A hop needs an event of its own only when a rule at its switch
// could change before the packet gets there. So the event that injects or
// resumes a packet forwards it on, hop by hop inside the same call, for as
// long as the next switch is on the same shard and the packet reaches it
// strictly before that switch's stable_until() (switchsim/switch.hpp): the
// earliest instant its tables or serving state could change, judged now
// from its install in progress, the frames in flight towards it, its least
// install time and its scheduled crashes. Each outcome is recorded at the
// packet's own arrival time; the monitor keys everything by that time, so
// the early record changes nothing. This is conservative lookahead
// (Chandy and Misra) applied per packet. One event is queued only where
// the bound or a shard boundary stops the walk:
//
//   late band  When every switch's change_lead() - its least install time
//              and its reply channel's min_delay() - exceeds the link
//              latency's max_delay(), the stopped hop is queued in the
//              remote band, which sorts after every native event of its
//              instant. Hop by hop, the hop would have been queued one link
//              earlier; every rule change or resync landing at its instant
//              was queued before that, and so ran before it either way.
//   rewind     Otherwise the stopped hop cannot be queued now without
//              sorting before same-instant changes queued later. The packet
//              rewinds to its first hop, which is queued natively exactly
//              where hop-by-hop forwarding would queue it. A walk that ends
//              inside the bound still needs no event.
//
// Cross-shard hand-offs stay posts in the remote band, as they always
// were, so every packet verdict is bit-identical to hop-by-hop forwarding;
// only the event counts fall.
//
// FROZEN STREAMS. The executor freezes every switch over the stretches in
// which it sends no FlowMod (SimSwitch::freeze_until: the warmup, and the
// drain after the last update) and the switches check the promise. Then
// packets need no walk, and no event, of their own:
//
//   bound   A switch's stable_until() is at least its frozen bound, so a
//           walk inside a freeze stops only at a shard boundary.
//   memo    The inject event walks its packet as above. When that walk
//           ends inside the event, on the home shard, it leaves its
//           verdict, the links it crossed and the least frozen bound F of
//           the switches it read. A walk that hands off to another shard
//           or stops at the bound leaves none, so a stream whose path
//           leaves its shard keeps one event per packet, and every walk of
//           a parallel epoch still reads shard-local tables only.
//   batch   In the same call, each later packet injected at t joins the
//           batch while t < stop and t + links * link max_delay() < F,
//           with saturating arithmetic. Such a packet reads the same
//           tables the memo's walk read, so it gets the same verdict. It
//           forks its Rng and draws its link latencies in the order the
//           walk draws them, and its verdict is recorded at its own
//           arrival time, so reports, timelines and injected() stay
//           bit-identical. Only the first packet the batch does not cover
//           gets an inject event. That event is queued earlier than hop by
//           hop would queue it, and still sorts the same against every
//           rule change at its instant: no event inside a freeze queues a
//           change, so every change it could meet was queued before the
//           freeze or after the batch's last packet. An unbounded link
//           model, whose max_delay() is 2^62 ns, batches a one-link walk
//           only in the last freeze, which lasts to the run's 2^63 ns
//           limit, and no longer walk at all.
//
// SHARDED OPERATION. A source runs on a ShardedSim + SwitchPartition; a
// single-queue experiment is a 1-shard group with the default partition.
// Every queued hop executes on the event queue of the shard OWNING the
// switch it reads, so a walk only ever touches shard-local flow tables -
// the invariant that lets parallel epochs run walks concurrently. Every
// hop that leaves its event for the remote band goes through
// ShardedSim::post: a walk whose next switch lives on a foreign shard
// hands the packet off to that shard, and a late-band hop is a self-post
// to its own shard. Each packet carries its own forked Rng for
// link-latency sampling: samples then depend only on the packet's own hop
// sequence, never on how concurrently-flying packets interleave or on
// where its walks stop, which keeps parallel runs bit-identical to
// sequential ones.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "tsu/dataplane/monitor.hpp"
#include "tsu/flow/match.hpp"
#include "tsu/sim/distributions.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::dataplane {

struct TrafficConfig {
  FlowId flow = 1;
  NodeId ingress = kInvalidNode;       // switch attached to the source host
  NodeId egress = kInvalidNode;        // switch attached to the dest host
  std::optional<NodeId> waypoint;      // security middlebox to enforce
  sim::LatencyModel interarrival =
      sim::LatencyModel::constant(sim::microseconds(200));
  sim::LatencyModel link_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  int ttl = 64;
  sim::SimTime start = 0;
  sim::SimTime stop = 0;  // no packet injected at/after this time
};

class TrafficSource {
 public:
  // Injection lives on the ingress switch's shard; hops follow the packet
  // across shard queues (see the file comment). `switches` is indexed by
  // NodeId; entries may be null for non-switch ids. `partition` must
  // outlive the source.
  TrafficSource(sim::ShardedSim& group, const topo::SwitchPartition& partition,
                std::vector<switchsim::SimSwitch*> switches,
                TrafficConfig config, Rng rng, ConsistencyMonitor& monitor);
  // Queued events hold `this`.
  TrafficSource(const TrafficSource&) = delete;
  TrafficSource& operator=(const TrafficSource&) = delete;

  // Schedules the first injection; the source then self-perpetuates until
  // `config.stop`.
  void start();

  std::size_t injected() const noexcept { return injected_; }

  // Moves the injection stop time (e.g. once the update under observation
  // has completed and the drain window is known). Only safe at a sync
  // point (the executor calls it from update-completion handlers, which
  // are kShared events): injection reads it from inside parallel epochs.
  void set_stop(sim::SimTime stop) noexcept { config_.stop = stop; }

 private:
  // Loop-detection bitmap sized by switch count. Topologies up to
  // kInlineBits switches (every current experiment) live entirely inline,
  // so a LivePacket - and the hop closure carrying it - needs no heap at
  // all; larger topologies fall back to one vector per packet.
  class VisitedSet {
   public:
    static constexpr std::size_t kInlineBits = 512;

    void reset(std::size_t size) {
      if (size > kInlineBits) {
        overflow_.assign((size + 63) / 64, 0);
      } else {
        overflow_.clear();
        bits_.fill(0);
      }
    }
    bool test(std::size_t i) const noexcept {
      return (words()[i >> 6] >> (i & 63) & 1) != 0;
    }
    void set(std::size_t i) noexcept {
      words()[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

   private:
    const std::uint64_t* words() const noexcept {
      return overflow_.empty() ? bits_.data() : overflow_.data();
    }
    std::uint64_t* words() noexcept {
      return overflow_.empty() ? bits_.data() : overflow_.data();
    }
    std::array<std::uint64_t, kInlineBits / 64> bits_{};
    std::vector<std::uint64_t> overflow_;
  };

  struct LivePacket {
    flow::Packet packet;
    VisitedSet visited;
    bool crossed_waypoint = false;
    // Per-packet latency stream (see the file comment).
    Rng rng;
    explicit LivePacket(Rng packet_rng) : rng(packet_rng) {}
  };

  // What a walk that ended inside its event leaves for a frozen batch.
  struct Memo {
    PacketOutcome outcome = PacketOutcome::kDelivered;
    std::uint32_t links = 0;        // links crossed, one latency draw each
    sim::SimTime frozen_until = 0;  // least frozen bound of the switches read
  };

  void inject();
  // Injects and records every packet from `at` on that `memo` covers (see
  // FROZEN STREAMS); returns the injection time of the first it does not.
  sim::SimTime batch(const Memo& memo, sim::SimTime at);
  // The packet reaches `at` now, in an event on the queue of `at`'s owning
  // shard, and walks on from there (see the file comment). Fills `memo`,
  // when given, if the walk ends inside this event.
  void walk(LivePacket live, NodeId at, Memo* memo = nullptr);
  // The packet reaches `at`: returns its verdict when it ends there, else
  // nothing, with the next switch and the link latency towards it.
  std::optional<PacketOutcome> visit(LivePacket& live, NodeId at,
                                     NodeId& next, sim::Duration& latency);
  // The event that resumes the walk when the packet reaches `at`.
  sim::EventFn resume(LivePacket live, NodeId at);

  sim::ShardedSim& group_;
  const topo::SwitchPartition& partition_;
  sim::Simulator& home_;  // the ingress switch's shard
  std::vector<switchsim::SimSwitch*> switches_;
  TrafficConfig config_;
  Rng rng_;
  ConsistencyMonitor& monitor_;
  // Whether a walk the bound stops queues its hop in the late band (true)
  // or rewinds to its first hop; set by start() from the switches.
  bool late_band_ = false;
  sim::Duration link_max_ = 0;  // config_.link_latency.max_delay()
  std::size_t injected_ = 0;
};

}  // namespace tsu::dataplane
