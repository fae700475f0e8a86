#include "tsu/channel/channel.hpp"

#include <algorithm>

#include "tsu/util/log.hpp"

namespace tsu::channel {

bool ControlChannel::faulted_drop(std::span<const std::byte> frame) {
  // Fault injection: a dead link has no session to buffer into, and a
  // blackhole eats the frame silently. Both return before any latency or
  // loss sampling, so the fault-free RNG stream is untouched.
  //
  // A blackhole's glitch window closes on a barrier boundary: if the frame
  // budget runs out without a barrier among the eaten frames, keep dropping
  // until one is. Otherwise a lost FlowMod could be followed by a delivered
  // barrier whose reply would falsely fence it - the controller would
  // believe the rule installed with no timeout ever firing, an undetectable
  // safety hole. Eating through the barrier guarantees every blackhole is
  // surfaced as a missing barrier reply and recovered by liveness retry.
  if (!down_ && pending_drops_ == 0 && !drop_until_barrier_) return false;
  if (!down_) {
    if (pending_drops_ > 0) --pending_drops_;
    if (pending_drops_ == 0)
      drop_until_barrier_ = !proto::frame_carries_barrier(frame);
  }
  ++stats_.frames_dropped;
  return true;
}

void ControlChannel::send(const proto::Message& message) {
  // Round-trip through the codec: what arrives is what survives the wire.
  // Encode into a pooled buffer - no allocation once the pool is warm.
  std::vector<std::byte> frame = acquire_frame();
  proto::encode_into(message, frame);
  transmit(std::move(frame));
}

void ControlChannel::send_encoded(std::span<const std::byte> bytes,
                                  std::uint32_t xid) {
  // Copy the caller's immutable bytes into a pooled buffer and patch the
  // live xid in - no encoder runs. assign() reuses the pooled capacity, so
  // the warm path stays allocation-free.
  std::vector<std::byte> frame = acquire_frame();
  frame.assign(bytes.begin(), bytes.end());
  proto::patch_xid(frame, xid);
  transmit(std::move(frame));
}

void ControlChannel::transmit(std::vector<std::byte>&& frame) {
  TSU_ASSERT_MSG(receiver_ != nullptr, "channel has no receiver");
  if (faulted_drop(frame)) {
    release_frame(std::move(frame));
    return;
  }
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  stats_.messages_sent += proto::frame_messages(frame);

  sim::Duration latency = config_.latency.sample(rng_);
  while (config_.loss_probability > 0 &&
         rng_.bernoulli(config_.loss_probability)) {
    // TCP recovers the loss; the receiver just sees it late. Saturating
    // keeps a run of huge timeouts within a single delay's bound.
    latency = std::min(latency + config_.retransmit_timeout, sim::kMaxDuration);
    ++stats_.retransmissions;
  }

  // In-order (TCP) delivery: never overtake the previous frame.
  sim::SimTime deliver_at = sim_.now() + latency;
  if (deliver_at < last_delivery_) deliver_at = last_delivery_;
  last_delivery_ = deliver_at;

  ++in_flight_;
  sim_.schedule_at(
      deliver_at,
      [this, frame = std::move(frame), epoch = epoch_]() mutable {
        --in_flight_;
        if (epoch != epoch_) {
          // The link went down while this frame was in flight: lost with
          // the session (fault injection; epochs never move otherwise).
          ++stats_.frames_dropped;
          release_frame(std::move(frame));
          return;
        }
        Result<proto::Message> decoded = proto::decode(frame);
        TSU_ASSERT_MSG(decoded.ok(), "channel produced an undecodable frame");
        receiver_(decoded.value());
        // The decoded Message owns every byte it keeps (Echo copies its
        // payload), so the wire buffer can be recycled immediately.
        release_frame(std::move(frame));
      },
      delivery_scope_);
}

}  // namespace tsu::channel
