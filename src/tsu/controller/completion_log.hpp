// Per-update completion metrics and the bounded completion log.
//
// The controller used to keep every finished update's UpdateMetrics in an
// append-only vector - fine for a closed-loop run that reads the results at
// the end, fatal for the open-loop service mode where millions of updates
// complete over a run's lifetime. CompletionLog replaces that vector with
// the steady-state-safe split:
//
//   * streaming aggregation (CompletionStats): counters, Welford summaries
//     and fixed-footprint log2 histograms updated per completion - O(1)
//     memory regardless of how many updates ever finished;
//   * a fixed-capacity recent-completion ring: the last `recent_capacity`
//     UpdateMetrics, for debugging, live stats snapshots and closed-loop
//     tests. Until the ring wraps its storage IS the full history in
//     completion order, so short runs observe exactly what the old vector
//     held (bit-identical closed-loop results).
//
// Ring slots are overwritten in place (std::string/vector capacity is
// reused), so a saturated steady state stops allocating here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tsu/sim/time.hpp"
#include "tsu/stats/histogram.hpp"
#include "tsu/stats/summary.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::controller {

struct RoundMetrics {
  sim::SimTime started = 0;
  sim::SimTime finished = 0;
  std::size_t flow_mods = 0;
  std::size_t barriers = 0;
};

struct UpdateMetrics {
  std::string name;
  FlowId flow = 0;
  // When the request entered the serving system. For closed-loop
  // submissions this equals `submitted`; the open-loop service mode stamps
  // the arrival instant so `admission_wait()` covers time spent in the
  // pending queue too.
  sim::SimTime enqueued = 0;
  sim::SimTime submitted = 0;
  sim::SimTime started = 0;
  sim::SimTime finished = 0;
  std::vector<RoundMetrics> rounds;
  std::size_t flow_mods_sent = 0;
  std::size_t barriers_sent = 0;
  // The request was rolled back and not resubmitted
  // (failure_response = rollback, resubmit_after_rollback = false): its
  // switches are back in the pre-update state.
  bool aborted = false;

  sim::Duration duration() const noexcept { return finished - started; }
  sim::Duration queueing_delay() const noexcept {
    return started - submitted;
  }
  // Arrival -> first FlowMod: queueing_delay() plus any service-mode
  // backpressure wait.
  sim::Duration admission_wait() const noexcept { return started - enqueued; }
};

// Streaming aggregate over every completion ever recorded: O(1) memory.
struct CompletionStats {
  std::uint64_t count = 0;
  std::uint64_t aborted = 0;
  std::uint64_t flow_mods_sent = 0;
  std::uint64_t barriers_sent = 0;
  std::uint64_t rounds = 0;
  sim::SimTime first_finished = 0;
  sim::SimTime last_finished = 0;
  stats::Summary duration_ms;
  stats::Summary wait_ms;  // admission_wait(), arrival -> start
  stats::LogHistogram duration_ns;
  stats::LogHistogram wait_ns;
};

class CompletionLog {
 public:
  static constexpr std::size_t kDefaultRecentCapacity = 256;

  explicit CompletionLog(
      std::size_t recent_capacity = kDefaultRecentCapacity)
      : capacity_(recent_capacity == 0 ? 1 : recent_capacity) {}

  // Folds the completion into the streaming stats and stores it in the
  // ring (overwriting the oldest entry once full). Returns a reference to
  // the stored entry - stable until `capacity_` further completions.
  // Takes a const reference on purpose: the wrapped-ring path copy-assigns
  // into the evicted slot so the slot's string/vector capacity is reused
  // AND the caller's buffers survive for its own recycling - a move would
  // free the slot's capacity and steal the caller's, reintroducing
  // steady-state allocation on both sides.
  const UpdateMetrics& record(const UpdateMetrics& metrics) {
    stats_.count += 1;
    if (metrics.aborted) stats_.aborted += 1;
    stats_.flow_mods_sent += metrics.flow_mods_sent;
    stats_.barriers_sent += metrics.barriers_sent;
    stats_.rounds += metrics.rounds.size();
    if (stats_.count == 1) stats_.first_finished = metrics.finished;
    stats_.last_finished = metrics.finished;
    const auto duration = static_cast<double>(metrics.duration());
    const auto wait = static_cast<double>(metrics.admission_wait());
    stats_.duration_ms.add(duration / 1e6);
    stats_.wait_ms.add(wait / 1e6);
    stats_.duration_ns.add(duration);
    stats_.wait_ns.add(wait);
    if (ring_.size() < capacity_) {
      ring_.push_back(metrics);
      return ring_.back();
    }
    UpdateMetrics& slot = ring_[next_];
    slot = metrics;
    next_ = (next_ + 1) % capacity_;
    return slot;
  }

  const CompletionStats& stats() const noexcept { return stats_; }
  std::uint64_t count() const noexcept { return stats_.count; }
  std::size_t recent_capacity() const noexcept { return capacity_; }
  // True once completions have been evicted from the ring: `recent()` is
  // then a rotated window, no longer the full history.
  bool wrapped() const noexcept { return stats_.count > capacity_; }

  // The ring's storage. Until wrapped(), this is every completion in
  // completion order; afterwards it holds the `capacity_` most recent
  // completions with the oldest at index `next_` (rotated).
  const std::vector<UpdateMetrics>& recent() const noexcept { return ring_; }

  // The i-th most recently recorded completion (0 = newest). Precondition:
  // i < recent().size().
  const UpdateMetrics& recent_back(std::size_t i) const noexcept {
    const std::size_t newest =
        (next_ + ring_.size() - 1 - i) % ring_.size();
    return ring_[newest];
  }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  // slot the next eviction overwrites
  std::vector<UpdateMetrics> ring_;
  CompletionStats stats_;
};

}  // namespace tsu::controller
