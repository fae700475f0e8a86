// Deterministic fault injection for the control plane.
//
// A FaultSchedule is a sorted list of fault events pinned to simulation
// times: switch crashes (with or without TCAM state loss), control-link
// outages, and frame blackholes. Schedules are plain data - seeded random
// generation, JSON round-tripping and value comparison all preserve the
// exact event list - so any chaos failure replays bit-identically from its
// serialized schedule (`sim_cli --faults <file>`).
//
// The schedule itself injects nothing; the core executor walks it and
// schedules the state flips as shared-scope events (sim/event_queue.hpp),
// so a fault lands at an exact instant on the owning shard's timeline in
// sequential and parallel stepping alike. An EMPTY schedule must leave the
// engine bit-identical to a build without this subsystem: nothing here may
// schedule events, draw randomness, or touch per-frame state unless the
// schedule is non-empty.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tsu/json/json.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/util/status.hpp"

namespace tsu::sim {

enum class FaultKind : std::uint8_t {
  // The switch process dies at `at` and restarts `down_for` later. While
  // down it forwards nothing (packets arriving there are outage loss, not
  // consistency violations) and its control channel drops every frame,
  // in-flight ones included. `lose_state` picks the variant: true models a
  // cold reboot (flow tables wiped; the controller resyncs the full shadow
  // image on reconnect), false a retained-TCAM restart (tables survive; the
  // resync only corrects rules whose install was unfenced at crash time).
  kSwitchCrash = 0,
  // The control channel (both directions) goes dark for `down_for`; the
  // switch keeps forwarding with the rules it has. On re-establishment the
  // switch opens a fresh session (Hello), which triggers the same
  // controller-driven resync path as a crash reconnect.
  kLinkDown = 1,
  // The next `frames` controller->switch frames vanish silently - no
  // session loss, no reconnect, so recovery can only come from the
  // controller's liveness timeout and retry.
  kBlackhole = 2,
};

const char* to_string(FaultKind kind) noexcept;

struct FaultEvent {
  FaultKind kind = FaultKind::kSwitchCrash;
  SimTime at = 0;
  NodeId node = 0;
  Duration down_for = 0;    // crash / link_down
  bool lose_state = true;   // crash variant
  std::size_t frames = 1;   // blackhole

  bool operator==(const FaultEvent&) const = default;
  std::string to_string() const;
};

// Knobs for FaultSchedule::random (all times relative to the run).
struct ChaosOptions {
  std::size_t node_count = 0;     // targets drawn from [0, node_count)
  double start_ms = 0;            // injection window [start, start+horizon)
  double horizon_ms = 50;
  std::size_t crashes = 1;
  std::size_t link_downs = 1;
  std::size_t blackholes = 1;
  double min_down_ms = 1;
  double max_down_ms = 5;
  std::size_t max_blackhole_frames = 3;
  double retained_tcam_fraction = 0.5;  // crashes keeping their tables
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  // Keeps the list sorted by (at, node, kind): injection order is part of
  // the schedule's value, never of its construction order.
  void add(FaultEvent event);

  bool operator==(const FaultSchedule&) const = default;

  // {"events": [{"kind": "crash", "at_ms": 8, "node": 3, "down_ms": 5,
  //              "lose_state": true}, ...]} - the replay artifact chaos
  // tests print on failure. from_json also accepts the bare events array.
  json::Value to_json() const;
  static Result<FaultSchedule> from_json(const json::Value& value);
  static Result<FaultSchedule> from_json(std::string_view text);

  // Seeded chaos generator: same (seed, options) => same schedule.
  static FaultSchedule random(std::uint64_t seed, const ChaosOptions& options);

 private:
  std::vector<FaultEvent> events_;
};

// Fault-path observability for one engine run: the controller counts
// detection and recovery (controller/stats.hpp), the executor what it
// injected and lost and when each outage recovered. Surfaced through the
// closed-loop result, sim_cli and the bench JSON. All zero on the
// fault-free path.
struct FaultStats {
  std::size_t crashes = 0;         // injected switch crashes
  std::size_t link_downs = 0;      // injected control-link outages
  std::size_t blackholes = 0;      // injected blackhole events
  std::size_t frames_lost = 0;     // control frames dropped by faults
  std::size_t timeouts = 0;        // liveness timeouts declared
  std::size_t resyncs = 0;         // reconnect resyncs completed
  std::size_t resync_frames = 0;   // FlowMods pushed by resyncs
  std::size_t rollbacks = 0;       // updates rolled back (inverse mods)
  std::size_t retries = 0;         // per-switch round retransmissions
  std::size_t resubmissions = 0;   // rolled-back updates resubmitted
  std::vector<double> recovery_ms; // outage start -> serving restored

  bool any() const noexcept {
    return crashes + link_downs + blackholes + timeouts + rollbacks != 0;
  }
  double recovery_p50_ms() const;
  double recovery_p99_ms() const;
  // Sums every count and appends the other run's recoveries.
  void merge(const FaultStats& other);
};

}  // namespace tsu::sim
