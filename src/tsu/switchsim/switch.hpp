// Simulated OpenFlow switch.
//
// Control messages are processed strictly FIFO with per-message processing
// times (FlowMods pay an install latency drawn from a configurable
// distribution - the knob that models OVS vs. the much noisier hardware
// switches of Kuzniar et al., which the paper cites in footnote 2).
// BARRIER_REQUEST is answered only once every earlier message has finished
// processing, which the FIFO discipline yields for free - exactly the
// OpenFlow barrier contract the paper's controller relies on.
//
// The flow table mutates at the *completion* instant of each FlowMod, so
// the data plane observes rule changes with realistic skew.
//
// INVARIANT: a switch's tables change only when a FlowMod completes, when
// the switch crashes, or through table() before the run starts. It stops
// serving only by a crash and serves again only when the controller
// confirms a resync, which a barrier reply over its outbound channel
// triggers. Nothing else writes table() or calls set_serving() while a run
// steps. The data-plane walk rests on this (dataplane/traffic.hpp): it
// forwards a probe through a switch inline, without an event of its own,
// whenever the probe arrives before stable_until(), and it orders the hops
// it does queue by change_lead(). The executor may also freeze a switch
// (freeze_until()) over a stretch in which it sends no FlowMod; probe
// streams then reuse one walk for many packets. The promise is checked
// where a change happens: a FlowMod that starts installing or completes,
// a crash and a set_serving() before the frozen bound abort the run
// (TSU_ASSERT), so a wrong declaration cannot diverge silently.
//
// Reply batching (`batch_replies`): the switch->controller direction can
// coalesce too. Replies produced within one simulation instant (barrier
// replies, echoes - a burst of batched barriers completes several at once)
// collect in a reply outbox flushed by a zero-delay event as one
// proto::Batch frame towards the owning controller shard, the way an idle
// controller's adaptive outbox flushes. Off by default: reply timing is
// unchanged unless asked for.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/flow/table.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/distributions.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/stats/summary.hpp"
#include "tsu/util/assert.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/ring.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::switchsim {

struct SwitchConfig {
  // OVS-ish default: median 1 ms with moderate spread.
  sim::LatencyModel install_latency =
      sim::LatencyModel::lognormal(sim::milliseconds(1), 0.5);
  sim::Duration barrier_processing = sim::microseconds(100);
  sim::Duration message_processing = sim::microseconds(10);
  // Coalesce same-instant switch->controller replies into one Batch frame.
  bool batch_replies = false;
};

class SimSwitch {
 public:
  using SendFn = std::function<void(const proto::Message&)>;

  SimSwitch(sim::Simulator& simulator, NodeId node, DatapathId dpid,
            SwitchConfig config, Rng rng)
      : sim_(simulator), node_(node), dpid_(dpid), config_(config),
        rng_(rng), install_min_(config_.install_latency.min_delay()) {}

  NodeId node() const noexcept { return node_; }
  DatapathId dpid() const noexcept { return dpid_; }

  // Outbound path towards the controller (barrier replies, echoes, errors).
  void set_controller_link(SendFn send) { to_controller_ = std::move(send); }

  // Inbound path: the channel delivers controller messages here.
  void receive(const proto::Message& message);

  // Live table 0 - the pipeline entry the data plane matches against - as
  // it stands right now.
  const flow::FlowTable& table() const noexcept { return table(0); }
  flow::FlowTable& table() noexcept { return tables_[0]; }

  // A specific flow table by id. FlowMods route to the table named in
  // their `table` field, so mods on different table ids really do mutate
  // different state - the physical grounding of the admission footprint's
  // table dimension. (Packet lookups stay in table 0: the pipeline model
  // has no goto-table.)
  const flow::FlowTable& table(std::uint8_t id) const noexcept {
    static const flow::FlowTable kEmpty;
    const auto it = tables_.find(id);
    return it != tables_.end() ? it->second : kEmpty;
  }
  flow::FlowTable& table(std::uint8_t id) noexcept { return tables_[id]; }

  // Every flow table by id (for whole-switch state digests). Emptied
  // tables stay resident (proto/apply.hpp keeps the slot so its rule
  // vectors' capacity survives the next install); consumers that care
  // about logical state must skip tables with size() == 0.
  const std::map<std::uint8_t, flow::FlowTable>& tables() const noexcept {
    return tables_;
  }

  // Number of tables currently holding at least one rule - the logical
  // table count (resident-but-empty tables are unwound state).
  std::size_t populated_tables() const noexcept {
    std::size_t n = 0;
    for (const auto& [id, table] : tables_)
      if (!table.empty()) ++n;
    return n;
  }

  // True when no message is being processed and the inbox is empty.
  bool quiescent() const noexcept { return !busy_ && inbox_.empty(); }

  // --- the bound the data-plane walk reads (see the file comment) -------
  // The control channels that deliver this switch's messages and carry its
  // replies. The executor attaches both; a bare switch has none, and then
  // any instant may hand it a message.
  void attach_channels(const channel::ControlChannel& inbound,
                       const channel::ControlChannel& outbound) noexcept {
    inbound_ = &inbound;
    inbound_min_ = inbound.min_delay();
    change_lead_ = std::min(install_min_, outbound.min_delay());
  }
  // Fault injection announces each crash it has scheduled for this switch.
  void expect_crash(sim::SimTime at);
  // The earliest instant, judged now, at which the tables or the serving
  // state could change: the frozen bound (below) if that is later, else
  // now for a switch that is down or not serving, and otherwise the
  // earliest of the scheduled crashes, the completion of a FlowMod in
  // progress, and the earliest start of the next message plus the least
  // install time. The next message starts when the one in progress ends,
  // or, on an idle switch, now if frames are in flight towards it and now
  // plus its inbound channel's min_delay() if none are.
  sim::SimTime stable_until() const noexcept;
  // The control plane's promise, made at a sync point, that from now until
  // `until` no FlowMod starts installing here and the switch neither
  // crashes nor changes its serving state: so no change happens, or is
  // queued, before `until`. Bounds only grow. The executor freezes every
  // switch over the warmup and after the last update (core/executor.cpp);
  // probe streams batch packets inside the bound (FROZEN STREAMS in
  // dataplane/traffic.hpp).
  void freeze_until(sim::SimTime until) noexcept {
    frozen_until_ = std::max(frozen_until_, until);
  }
  sim::SimTime frozen_until() const noexcept { return frozen_until_; }
  // The least time between the event that queues a change here and the
  // change: a FlowMod's completion is queued when its install starts, and
  // a resync's return to service when the switch's barrier reply leaves on
  // the outbound channel. Crashes are queued before the run starts.
  sim::Duration change_lead() const noexcept { return change_lead_; }

  // --- fault injection (sim/faults.hpp; inert unless driven) -----------
  // The switch process dies: control messages in the inbox are lost, the
  // in-flight install (if any) never completes (its completion event is
  // epoch-fenced below), and with `lose_state` the flow tables are wiped -
  // the cold-reboot variant. serving() goes false either way: a rebooting
  // switch forwards nothing until the controller's resync clears it
  // (fail-secure; a retained-TCAM switch serving stale rules before resync
  // could silently violate the very properties under test).
  void crash(bool lose_state);
  // The process is back: opens a fresh control session by sending Hello
  // towards the controller (bypassing reply batching - there is no session
  // to batch into yet). serving() stays false until resync completes.
  void restart();
  // A link-only outage healed: same fresh-session Hello, but the data
  // plane never stopped (serving() untouched).
  void announce();
  bool up() const noexcept { return up_; }
  bool serving() const noexcept { return serving_; }
  void set_serving(bool serving) noexcept {
    assert_unfrozen();
    serving_ = serving;
  }
  // Control frames dropped because they arrived while the switch was down.
  std::size_t frames_dropped() const noexcept { return frames_dropped_; }

  std::size_t flow_mods_applied() const noexcept { return flow_mods_applied_; }
  std::size_t barriers_replied() const noexcept { return barriers_replied_; }
  std::size_t batches_received() const noexcept { return batches_received_; }
  // Reply batching: Batch frames this switch shipped towards the
  // controller and the replies they carried.
  std::size_t reply_batches_sent() const noexcept {
    return reply_batches_sent_;
  }
  std::size_t batched_replies_sent() const noexcept {
    return batched_replies_sent_;
  }
  const stats::Summary& install_times() const noexcept {
    return install_times_;
  }

 private:
  void start_next();
  void complete(const proto::Message& message);
  void apply_flow_mod(const proto::FlowMod& mod);
  // Aborts the run when a change lands inside the frozen bound.
  void assert_unfrozen() const noexcept {
    TSU_ASSERT_MSG(sim_.now() >= frozen_until_,
                   "switch state changed inside a declared freeze");
  }
  void send_to_controller(proto::Message message);
  void maybe_flush_replies();
  void flush_replies();

  sim::Simulator& sim_;
  NodeId node_;
  DatapathId dpid_;
  SwitchConfig config_;
  Rng rng_;
  SendFn to_controller_;

  // Flow tables by table id; created on first touch. Table 0 serves the
  // data plane.
  std::map<std::uint8_t, flow::FlowTable> tables_;
  // Flat ring, not a deque: the inbox cycles at a roughly constant depth
  // in steady state, and deque chunk churn would allocate on every ~32rd
  // push (util/ring.hpp).
  util::FlatRing<proto::Message> inbox_;
  bool busy_ = false;
  // The message in progress ends at busy_until_; installing_ when it is a
  // FlowMod, whose table change lands right then.
  sim::SimTime busy_until_ = 0;
  bool installing_ = false;

  // What stable_until() and change_lead() read besides the state above:
  // the least install time, the inbound channel and its least latency, the
  // lead the channels allow, and the scheduled crash instants, sorted.
  sim::Duration install_min_;
  const channel::ControlChannel* inbound_ = nullptr;
  sim::Duration inbound_min_ = 0;
  sim::Duration change_lead_ = install_min_;
  std::vector<sim::SimTime> crashes_;
  sim::SimTime frozen_until_ = 0;

  // Fault state. `epoch_` fences in-flight completion events across a
  // crash: a completion scheduled before the crash sees a stale epoch and
  // becomes a no-op (the install died with the process).
  bool up_ = true;
  bool serving_ = true;
  std::uint64_t epoch_ = 0;
  std::size_t frames_dropped_ = 0;

  // Reply outbox (batch_replies): same-instant replies awaiting the
  // zero-delay flush, whose event is re-armed per completion so it always
  // fires after the instant's last reply.
  std::vector<proto::Message> reply_outbox_;
  // Reused flush staging buffer (capacities circulate with reply_outbox_,
  // so steady-state flushes stop allocating at high-water size).
  std::vector<proto::Message> reply_scratch_;
  bool reply_flush_scheduled_ = false;
  sim::EventId reply_flush_event_ = 0;

  std::size_t flow_mods_applied_ = 0;
  std::size_t barriers_replied_ = 0;
  std::size_t batches_received_ = 0;
  std::size_t reply_batches_sent_ = 0;
  std::size_t batched_replies_sent_ = 0;
  stats::Summary install_times_;  // ns
};

}  // namespace tsu::switchsim
