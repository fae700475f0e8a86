// Asynchronous control channel between the controller and one switch.
//
// OpenFlow runs over TCP: per-connection delivery is reliable and in-order,
// but *different* switches' connections race each other freely - which is
// exactly the asynchrony the paper's schedulers defend against. The model:
// every frame samples a latency from the configured distribution; delivery
// order within one channel direction is forced FIFO (a later frame never
// overtakes an earlier one); loss is modelled as TCP would surface it, as an
// extra retransmission delay rather than an actual drop.
//
// Frames are round-tripped through the binary codec on every send, so the
// wire format is exercised by every simulation, not just by codec tests.
// Frame buffers are pooled: a send encodes into a recycled vector (capacity
// retained) and the delivery event returns it to the pool, so steady-state
// traffic allocates nothing once buffers hit their high-water size.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tsu/proto/codec.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/distributions.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::channel {

struct ChannelConfig {
  sim::LatencyModel latency = sim::LatencyModel::constant(sim::milliseconds(1));
  // Probability that a frame transmission is lost and must be retransmitted
  // after `retransmit_timeout` (repeatable; geometric number of attempts).
  // Must be below 1: at 1 no frame ever arrives.
  double loss_probability = 0.0;
  sim::Duration retransmit_timeout = sim::milliseconds(50);
};

// What one channel direction carried. A Batch frame counts its contained
// messages in messages_sent, so messages_sent - frames_sent is the
// coalescing saving; frames_dropped counts frames lost to outages and
// blackholes.
struct ChannelStats {
  std::size_t frames_sent = 0;
  std::size_t bytes_sent = 0;
  std::size_t messages_sent = 0;
  std::size_t retransmissions = 0;
  std::size_t frames_dropped = 0;

  void merge(const ChannelStats& other) noexcept {
    frames_sent += other.frames_sent;
    bytes_sent += other.bytes_sent;
    messages_sent += other.messages_sent;
    retransmissions += other.retransmissions;
    frames_dropped += other.frames_dropped;
  }
};

class ControlChannel {
 public:
  using DeliverFn = std::function<void(const proto::Message&)>;

  ControlChannel(sim::Simulator& simulator, ChannelConfig config, Rng rng)
      : sim_(simulator), config_(config), rng_(rng) {}

  void set_receiver(DeliverFn receiver) { receiver_ = std::move(receiver); }

  // Scope of the delivery events this channel schedules (see
  // sim/event_queue.hpp). The executor marks the controller->switch
  // direction kLocal - switch, channel and owning controller shard live on
  // one shard - while switch->controller deliveries stay kShared: reply
  // processing can complete updates and cross shards through the
  // coordinator, so it must run at a sync point.
  void set_delivery_scope(sim::EventScope scope) noexcept {
    delivery_scope_ = scope;
  }

  // Enqueues `message` for delivery to the receiver side.
  void send(const proto::Message& message);

  // Sends a frame that is already encoded: one message or a Batch, as the
  // controller's outbox ships them. The bytes are copied into a pooled
  // buffer and the header's xid is patched to `xid` there, so the caller's
  // bytes stay immutable (a compiled plan reuses its frames across sends).
  // Delivery is byte-identical to send() of the decoded message: same
  // counters, same single latency sample, same FIFO clamp, same fault
  // gates.
  void send_encoded(std::span<const std::byte> bytes, std::uint32_t xid);

  // --- fault injection (sim/faults.hpp; inert unless driven) -----------
  // Link outage: frames sent while down are dropped at the sender (the TCP
  // session is gone - nothing buffers), and frames already in flight at
  // the down transition are lost too (each delivery is fenced on the link
  // epoch captured at send time). Taking the link back up starts a fresh
  // epoch; it never resurrects lost frames.
  void set_down(bool down) noexcept {
    if (down_ != down) ++epoch_;
    down_ = down;
  }
  bool down() const noexcept { return down_; }
  // Blackhole: silently drop the next `frames` frames (no session loss).
  // The glitch window always closes on a barrier boundary - if none of the
  // eaten frames carried a barrier request, dropping continues until one
  // does. A later barrier delivered after a silently lost FlowMod would
  // otherwise fence the loss and hide it from liveness detection forever.
  void drop_next(std::size_t frames) noexcept { pending_drops_ += frames; }

  const ChannelStats& stats() const noexcept { return stats_; }

  // Frames sent and not yet at their delivery event, lost ones included
  // until that event drops them. With none in flight, nothing sent from now
  // on arrives before now + min_delay(); the receiving switch bounds its
  // next table change on that (switchsim/switch.hpp).
  std::size_t in_flight() const noexcept { return in_flight_; }
  sim::Duration min_delay() const noexcept {
    return config_.latency.min_delay();
  }

 private:
  // Fault gate: returns true when the frame was consumed by an outage or
  // blackhole window (counted in stats_.frames_dropped). Blackhole windows
  // only close on a frame that carries a barrier request, read off the
  // header.
  bool faulted_drop(std::span<const std::byte> frame);
  // Shared back half of send()/send_encoded(), given the encoded frame:
  // the fault gate (a dropped frame's buffer goes back to the pool), the
  // stats (messages read off the header), one latency sample (plus
  // loss retransmits) and the FIFO-clamped delivery event that decodes
  // and hands the message to the receiver.
  void transmit(std::vector<std::byte>&& frame);

  // Frame-buffer pool. acquire hands out a cleared vector that keeps its
  // high-water capacity; release returns it after delivery (or epoch drop).
  std::vector<std::byte> acquire_frame() {
    if (frame_pool_.empty()) return {};
    std::vector<std::byte> frame = std::move(frame_pool_.back());
    frame_pool_.pop_back();
    return frame;
  }
  void release_frame(std::vector<std::byte>&& frame) {
    frame.clear();
    frame_pool_.push_back(std::move(frame));
  }

  sim::Simulator& sim_;
  ChannelConfig config_;
  Rng rng_;
  DeliverFn receiver_;
  sim::EventScope delivery_scope_ = sim::EventScope::kShared;
  sim::SimTime last_delivery_ = 0;
  std::size_t in_flight_ = 0;

  // Fault state: down flag, link-session epoch (bumped on every up/down
  // transition; deliveries from an older epoch are dropped), and the
  // blackhole countdown. All untouched on the fault-free path.
  bool down_ = false;
  std::uint64_t epoch_ = 0;
  std::size_t pending_drops_ = 0;
  bool drop_until_barrier_ = false;

  ChannelStats stats_;

  std::vector<std::vector<std::byte>> frame_pool_;
};

// The duplex controller<->switch connection.
struct DuplexChannel {
  ControlChannel to_switch;
  ControlChannel to_controller;

  DuplexChannel(sim::Simulator& simulator, const ChannelConfig& config,
                Rng& parent_rng)
      : to_switch(simulator, config, parent_rng.fork()),
        to_controller(simulator, config, parent_rng.fork()) {}
};

}  // namespace tsu::channel
