// Conflict-aware admission tests: rule footprint computation, overlap
// detection, dependency-DAG admit/release ordering for the two policies,
// controller-level conflict serialization, and a randomized liveness
// property (every admitted request eventually completes; no deadlock).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <set>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/admission.hpp"
#include "tsu/controller/controller.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::controller {
namespace {

// ------------------------------------------------------- Match::overlaps --

TEST(MatchOverlapTest, WildcardOverlapsEverything) {
  const flow::Match wild = flow::Match::wildcard();
  EXPECT_TRUE(wild.overlaps(wild));
  EXPECT_TRUE(wild.overlaps(flow::Match::exact_flow(7)));
  EXPECT_TRUE(flow::Match::exact_flow(7).overlaps(wild));
}

TEST(MatchOverlapTest, ConcreteFieldsSeparate) {
  EXPECT_TRUE(flow::Match::exact_flow(7).overlaps(flow::Match::exact_flow(7)));
  EXPECT_FALSE(
      flow::Match::exact_flow(7).overlaps(flow::Match::exact_flow(8)));
  // Disjoint on one field is enough, even when others are wildcarded.
  flow::Match a = flow::Match::exact_flow(7);
  a.in_port = 1;
  flow::Match b = flow::Match::exact_flow(7);
  b.in_port = 2;
  EXPECT_FALSE(a.overlaps(b));
  b.in_port.reset();
  EXPECT_TRUE(a.overlaps(b));  // b's wildcard port covers a's port 1
}

TEST(MatchOverlapTest, OverlapIsSymmetricAndWiderThanSubsumption) {
  flow::Match narrow = flow::Match::exact_flow(3);
  narrow.src_host = 1;
  const flow::Match wide = flow::Match::exact_flow(3);
  EXPECT_TRUE(wide.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wide));
  // ...but overlap holds both ways.
  EXPECT_TRUE(wide.overlaps(narrow));
  EXPECT_TRUE(narrow.overlaps(wide));
}

// ------------------------------------------------------------- Footprint --

RoundOp op(NodeId node, FlowId flow, NodeId next, std::uint8_t table = 0) {
  proto::FlowMod mod;
  mod.command = proto::FlowModCommand::kAdd;
  mod.table = table;
  mod.priority = 100;
  mod.match.flow = flow;
  mod.action = flow::Action::forward(next);
  return RoundOp{node, mod, {}};
}

TEST(FootprintTest, CollectsEveryRoundIncludingCleanup) {
  const update::Instance inst = topo::pool_workload(1, 6).front();
  const update::Schedule schedule = update::plan_peacock(inst).value();
  const UpdateRequest request =
      request_from_schedule(inst, schedule, 42, 100, 0);
  const Footprint footprint = Footprint::of(request);

  // Every node named in any round (schedule rounds + trailing cleanup
  // deletes) appears with the request's flow match.
  std::set<NodeId> touched;
  for (const std::vector<RoundOp>& round : request.rounds)
    for (const RoundOp& round_op : round) touched.insert(round_op.node);
  std::set<NodeId> in_footprint;
  for (const RuleRef& rule : footprint.rules()) {
    in_footprint.insert(rule.node);
    EXPECT_EQ(rule.table, 0);
    EXPECT_EQ(rule.match.flow, 42u);
  }
  EXPECT_EQ(in_footprint, touched);
  EXPECT_FALSE(schedule.cleanup.empty());
  for (const NodeId v : schedule.cleanup)
    EXPECT_TRUE(in_footprint.count(v) > 0) << "cleanup node " << v;
}

TEST(FootprintTest, DeduplicatesRepeatedRules) {
  UpdateRequest request;
  request.flow = 1;
  request.rounds = {{op(1, 1, 2), op(1, 1, 2)}, {op(1, 1, 3)}};
  // Same (node, table, match) three times; action differences don't split
  // the footprint entry.
  EXPECT_EQ(Footprint::of(request).size(), 1u);
}

TEST(FootprintTest, ConflictNeedsSameSwitchSameTableOverlappingMatch) {
  // Whether a one-op request is blocked behind a live one-op request on
  // switch 1, flow 7, table 0 under conflict-aware admission.
  const auto blocked_behind_base = [](RoundOp other) {
    const auto footprint_of_one = [](RoundOp one) {
      UpdateRequest request;
      request.rounds = {{std::move(one)}};
      return Footprint::of(request);
    };
    AdmissionQueue q(AdmissionPolicy::kConflictAware);
    q.submit(1, footprint_of_one(op(1, 7, 2)));
    return !q.submit(2, footprint_of_one(std::move(other)));
  };
  EXPECT_TRUE(blocked_behind_base(op(1, 7, 9)));
  // Different switch.
  EXPECT_FALSE(blocked_behind_base(op(2, 7, 9)));
  // Different flow (disjoint matches).
  EXPECT_FALSE(blocked_behind_base(op(1, 8, 9)));
  // Different table on the same switch.
  EXPECT_FALSE(blocked_behind_base(op(1, 7, 9, 1)));
  // A wildcard match on the same switch conflicts with everything there.
  proto::FlowMod wild;
  wild.match = flow::Match::wildcard();
  EXPECT_TRUE(blocked_behind_base(RoundOp{1, wild, {}}));
}

// -------------------------------------------------------- AdmissionQueue --

Footprint flow_on_nodes(FlowId flow, std::vector<NodeId> nodes) {
  Footprint footprint;
  for (const NodeId node : nodes)
    footprint.add(RuleRef{node, 0, flow::Match::exact_flow(flow)});
  return footprint;
}

TEST(AdmissionQueueTest, ConflictAwareAdmitReleaseOrdering) {
  AdmissionQueue q(AdmissionPolicy::kConflictAware);
  // A and C are disjoint; B conflicts with A (same flow, shared node).
  EXPECT_TRUE(q.submit(1, flow_on_nodes(1, {1, 2})));
  EXPECT_FALSE(q.submit(2, flow_on_nodes(1, {2, 3})));
  EXPECT_TRUE(q.submit(3, flow_on_nodes(2, {1, 2})));  // other flow: disjoint
  EXPECT_TRUE(q.admissible(1));
  EXPECT_FALSE(q.admissible(2));
  EXPECT_TRUE(q.admissible(3));
  EXPECT_EQ(q.blocked(), 1u);
  EXPECT_EQ(q.conflict_edges(), 1u);
  EXPECT_EQ(q.blocked_submissions(), 1u);

  // Releasing the disjoint request frees nothing...
  EXPECT_TRUE(q.release(3).empty());
  EXPECT_FALSE(q.admissible(2));
  // ...releasing the conflict does.
  const std::vector<AdmissionQueue::Id> unblocked = q.release(1);
  ASSERT_EQ(unblocked.size(), 1u);
  EXPECT_EQ(unblocked.front(), 2u);
  EXPECT_TRUE(q.admissible(2));
  EXPECT_EQ(q.live(), 1u);
}

TEST(AdmissionQueueTest, ChainReleasesInArrivalOrder) {
  AdmissionQueue q(AdmissionPolicy::kConflictAware);
  // Three requests on the same rule: a dependency chain. Each waits only
  // for the live conflicts at submission.
  EXPECT_TRUE(q.submit(1, flow_on_nodes(1, {5})));
  EXPECT_FALSE(q.submit(2, flow_on_nodes(1, {5})));
  EXPECT_FALSE(q.submit(3, flow_on_nodes(1, {5})));
  EXPECT_EQ(q.release(1), (std::vector<AdmissionQueue::Id>{2}));
  // 3 still waits for 2 (it arrived while 2 was live).
  EXPECT_FALSE(q.admissible(3));
  EXPECT_EQ(q.release(2), (std::vector<AdmissionQueue::Id>{3}));
  EXPECT_TRUE(q.admissible(3));
}

TEST(AdmissionQueueTest, BlindAdmitsEverything) {
  AdmissionQueue blind(AdmissionPolicy::kBlind);
  EXPECT_TRUE(blind.submit(1, flow_on_nodes(1, {1})));
  EXPECT_TRUE(blind.submit(2, flow_on_nodes(1, {1})));  // same rule: no edge
  EXPECT_EQ(blind.conflict_edges(), 0u);
}

TEST(AdmissionQueueTest, LivenessUnderRandomizedArrivalAndCompletion) {
  // 500 seeded instances: random footprints over a small switch pool
  // (dense conflicts), submitted in random order, completions interleaved
  // randomly with arrivals. The DAG must never deadlock: whenever requests
  // are live and none is running, at least one must be admissible, and
  // every request must eventually complete exactly once.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    const AdmissionPolicy policy = seed % 2 == 0
                                       ? AdmissionPolicy::kBlind
                                       : AdmissionPolicy::kConflictAware;
    AdmissionQueue q(policy);

    const std::size_t total = 5 + rng.index(30);
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::vector<AdmissionQueue::Id> waiting;  // live, not yet running
    std::vector<AdmissionQueue::Id> running;

    while (completed < total) {
      const bool can_submit = submitted < total;
      const bool prefer_submit = can_submit && rng.index(2) == 0;
      if (prefer_submit || (waiting.empty() && running.empty())) {
        ASSERT_TRUE(can_submit) << "seed " << seed << ": drained early";
        const AdmissionQueue::Id id = ++submitted;
        // 1-3 rules over 4 switches and 3 flows: heavy overlap.
        Footprint footprint;
        const std::size_t rules = 1 + rng.index(3);
        for (std::size_t r = 0; r < rules; ++r)
          footprint.add(RuleRef{static_cast<NodeId>(rng.index(4)), 0,
                                flow::Match::exact_flow(rng.index(3))});
        q.submit(id, std::move(footprint));
        waiting.push_back(id);
      } else if (!running.empty() && (waiting.empty() || rng.index(2) == 0)) {
        // Complete a random running request.
        const std::size_t pick = rng.index(running.size());
        const AdmissionQueue::Id id = running[pick];
        running.erase(running.begin() + pick);
        q.release(id);
        ++completed;
      } else {
        // Start a random admissible waiter; if none is admissible and
        // nothing is running, the DAG has deadlocked.
        std::vector<std::size_t> admissible;
        for (std::size_t i = 0; i < waiting.size(); ++i)
          if (q.admissible(waiting[i])) admissible.push_back(i);
        if (admissible.empty()) {
          ASSERT_FALSE(running.empty())
              << "seed " << seed << ": deadlock with " << waiting.size()
              << " waiters and nothing running";
          continue;  // progress requires a completion first
        }
        const std::size_t pick = admissible[rng.index(admissible.size())];
        running.push_back(waiting[pick]);
        waiting.erase(waiting.begin() + pick);
      }
    }
    EXPECT_EQ(q.live(), 0u) << "seed " << seed;
    EXPECT_EQ(completed, total) << "seed " << seed;
  }
}

TEST(AdmissionQueueTest, RuleIndexStaysPrunedOverManyCycles) {
  // release() prunes empty by-switch index buckets; a
  // service-style run cycling requests over a rotating switch set must
  // return the index to empty at every drained instant, or steady-state
  // memory would grow with the number of distinct switches ever touched.
  AdmissionQueue q(AdmissionPolicy::kConflictAware);
  for (std::uint64_t cycle = 0; cycle < 2000; ++cycle) {
    const AdmissionQueue::Id id = cycle + 1;
    const NodeId base = static_cast<NodeId>((cycle % 97) * 3);
    EXPECT_TRUE(q.submit(
        id, flow_on_nodes(static_cast<FlowId>(cycle % 5),
                          {base, static_cast<NodeId>(base + 1),
                           static_cast<NodeId>(base + 2)})));
    q.release(id);
    ASSERT_EQ(q.live(), 0u);
    ASSERT_EQ(q.index_switches(), 0u);
    ASSERT_EQ(q.index_rules(), 0u);
  }
  // Overlapping lifetimes, released in both orders.
  AdmissionQueue::Id next = 1;
  for (std::uint64_t cycle = 0; cycle < 500; ++cycle) {
    const AdmissionQueue::Id a = next++;
    const AdmissionQueue::Id b = next++;
    q.submit(a, flow_on_nodes(1, {1, 2}));
    q.submit(b, flow_on_nodes(1, {2, 3}));  // conflicts with a on node 2
    if (cycle % 2 == 0) {
      q.release(a);
      q.release(b);
    } else {
      q.release(b);
      q.release(a);
    }
    ASSERT_EQ(q.live(), 0u);
    ASSERT_EQ(q.index_switches(), 0u);
    ASSERT_EQ(q.index_rules(), 0u);
  }
}

// ------------------------------------------- controller-level admission --

struct TestBed {
  sim::Simulator sim;
  Rng rng{777};
  Controller ctrl;
  std::map<NodeId, std::unique_ptr<switchsim::SimSwitch>> switches;
  std::vector<std::unique_ptr<channel::DuplexChannel>> channels;

  channel::ChannelConfig channel_config;
  switchsim::SwitchConfig switch_config;

  explicit TestBed(ControllerConfig config) : ctrl(sim, config) {
    channel_config.latency = sim::LatencyModel::constant(sim::milliseconds(1));
    switch_config.install_latency =
        sim::LatencyModel::constant(sim::milliseconds(1));
  }

  void add_switch(NodeId node) {
    auto sw = std::make_unique<switchsim::SimSwitch>(
        sim, node, node, switch_config, rng.fork());
    auto duplex = std::make_unique<channel::DuplexChannel>(
        sim, channel_config, rng);
    auto* sw_ptr = sw.get();
    auto* duplex_ptr = duplex.get();
    duplex->to_switch.set_receiver(
        [sw_ptr](const proto::Message& m) { sw_ptr->receive(m); });
    duplex->to_controller.set_receiver(
        [this, node](const proto::Message& m) { ctrl.on_message(node, m); });
    sw->set_controller_link([duplex_ptr](const proto::Message& m) {
      duplex_ptr->to_controller.send(m);
    });
    ctrl.attach_switch(
        node, [duplex_ptr](std::span<const std::byte> frame, Xid xid) {
          duplex_ptr->to_switch.send_encoded(frame, xid);
        });
    switches.emplace(node, std::move(sw));
    channels.push_back(std::move(duplex));
  }
};

UpdateRequest two_round_request(const std::string& name, FlowId flow,
                                NodeId a, NodeId b, NodeId next) {
  UpdateRequest request;
  request.name = name;
  request.flow = flow;
  request.rounds = {{op(a, flow, next)}, {op(b, flow, next + 1)}};
  return request;
}

TEST(ConflictAwareControllerTest, SameFlowUpdatesSerializeAcrossConflict) {
  ControllerConfig config;
  config.max_in_flight = 4;
  config.admission = AdmissionPolicy::kConflictAware;
  TestBed bed{config};
  bed.add_switch(1);
  bed.add_switch(2);
  bed.add_switch(3);
  // a and b rewrite the same flow on overlapping switches: a true rule
  // conflict. c updates another flow on the same switches: rule-disjoint.
  bed.ctrl.submit(two_round_request("a", 1, 1, 2, 7));
  bed.ctrl.submit(two_round_request("b", 1, 2, 3, 9));
  bed.ctrl.submit(two_round_request("c", 2, 1, 2, 7));
  EXPECT_EQ(bed.ctrl.in_flight(), 2u);  // a and c; b queued on a
  EXPECT_EQ(bed.ctrl.queued(), 1u);
  EXPECT_EQ(bed.ctrl.blocked(), 1u);
  bed.sim.run();

  ASSERT_EQ(bed.ctrl.completed().size(), 3u);
  std::map<std::string, const UpdateMetrics*> by_name;
  for (const UpdateMetrics& m : bed.ctrl.completed()) by_name[m.name] = &m;
  // The conflicting pair never overlapped...
  EXPECT_GE(by_name.at("b")->started, by_name.at("a")->finished);
  // ...and their order is arrival order, so the final state is b's.
  // The disjoint request ran concurrently with a.
  EXPECT_LT(by_name.at("c")->started, by_name.at("a")->finished);
  EXPECT_EQ(bed.ctrl.stats().conflict_edges, 1u);
  EXPECT_EQ(bed.ctrl.stats().blocked_submissions, 1u);

  // Switch 2 saw both of flow 1's writes in request order: b's rule
  // (round 1 on switch 2 forwards to 9) wins over a's earlier write.
  flow::Packet p;
  p.flow = 1;
  EXPECT_EQ(bed.switches[2]->table().lookup(p)->action,
            flow::Action::forward(9));
}

TEST(ConflictAwareControllerTest, BlindRacesWhereConflictAwareWaits) {
  // The same conflicting pair admitted blindly overlaps in time - the
  // transient-violation window conflict-aware admission closes.
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kBlind, AdmissionPolicy::kConflictAware}) {
    ControllerConfig config;
    config.max_in_flight = 2;
    config.admission = policy;
    TestBed bed{config};
    bed.add_switch(1);
    bed.add_switch(2);
    bed.ctrl.submit(two_round_request("a", 1, 1, 2, 7));
    bed.ctrl.submit(two_round_request("b", 1, 2, 1, 9));
    bed.sim.run();
    ASSERT_EQ(bed.ctrl.completed().size(), 2u);
    const UpdateMetrics& first = bed.ctrl.completed()[0];
    const UpdateMetrics& second = bed.ctrl.completed()[1];
    if (policy == AdmissionPolicy::kBlind) {
      // Both in flight at once: the race exists.
      EXPECT_EQ(bed.ctrl.stats().max_in_flight_observed, 2u);
      EXPECT_LT(second.started, first.finished);
    } else {
      EXPECT_EQ(bed.ctrl.stats().max_in_flight_observed, 1u);
      EXPECT_GE(second.started, first.finished);
    }
  }
}

TEST(ConflictAwareControllerTest, DifferentTablesAreDisjointStateAndRunConcurrently) {
  // Admission treats mods on different table ids as non-conflicting; the
  // switch grounds that physically by routing each mod to its own flow
  // table, so the concurrently admitted updates really touch disjoint
  // state.
  ControllerConfig config;
  config.max_in_flight = 2;
  config.admission = AdmissionPolicy::kConflictAware;
  TestBed bed{config};
  bed.add_switch(1);
  UpdateRequest t0;
  t0.name = "t0";
  t0.flow = 1;
  t0.rounds = {{op(1, 1, 7, 0)}};
  UpdateRequest t1;
  t1.name = "t1";
  t1.flow = 1;  // same switch, same match - only the table differs
  t1.rounds = {{op(1, 1, 9, 1)}};
  bed.ctrl.submit(t0);
  bed.ctrl.submit(t1);
  EXPECT_EQ(bed.ctrl.in_flight(), 2u);  // no conflict edge
  EXPECT_EQ(bed.ctrl.stats().conflict_edges, 0u);
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 2u);
  flow::Packet p;
  p.flow = 1;
  EXPECT_EQ(bed.switches[1]->table(0).lookup(p)->action,
            flow::Action::forward(7));
  EXPECT_EQ(bed.switches[1]->table(1).lookup(p)->action,
            flow::Action::forward(9));
}

TEST(ConflictAwareControllerTest, BlockedHeadDoesNotStallIndependentWork) {
  ControllerConfig config;
  config.max_in_flight = 2;
  config.admission = AdmissionPolicy::kConflictAware;
  TestBed bed{config};
  bed.add_switch(1);
  bed.add_switch(2);
  // Two conflicting requests fill slot 1 and the queue head; a later
  // disjoint request must overtake the blocked head instead of waiting.
  bed.ctrl.submit(two_round_request("a", 1, 1, 1, 7));
  bed.ctrl.submit(two_round_request("a2", 1, 1, 1, 9));
  bed.ctrl.submit(two_round_request("d", 2, 2, 2, 7));
  EXPECT_EQ(bed.ctrl.in_flight(), 2u);  // a + d (d overtook a2)
  bed.sim.run();
  ASSERT_EQ(bed.ctrl.completed().size(), 3u);
  EXPECT_EQ(bed.ctrl.completed()[0].name, "a");  // a, d same length; a first
  std::map<std::string, const UpdateMetrics*> by_name;
  for (const UpdateMetrics& m : bed.ctrl.completed()) by_name[m.name] = &m;
  EXPECT_EQ(by_name.at("d")->queueing_delay(), 0u);
  EXPECT_GT(by_name.at("a2")->queueing_delay(), 0u);
}

}  // namespace
}  // namespace tsu::controller
