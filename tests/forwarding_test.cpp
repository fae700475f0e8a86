#include <gtest/gtest.h>

#include "tsu/graph/algorithms.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/forwarding.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::update {
namespace {

Instance simple() {
  // old 0->1->2->3, new 0->4->2->1->3 (backward move at 2).
  Result<Instance> inst = Instance::make({0, 1, 2, 3}, {0, 4, 2, 1, 3});
  EXPECT_TRUE(inst.ok());
  return std::move(inst).value();
}

StateMask with_updates(const Instance& inst,
                       std::initializer_list<NodeId> nodes) {
  StateMask state = empty_state(inst);
  for (const NodeId v : nodes) state[v] = true;
  return state;
}

TEST(ForwardingTest, EmptyStateFollowsOldPath) {
  const Instance inst = simple();
  const WalkResult walk = walk_from_source(inst, empty_state(inst));
  EXPECT_EQ(walk.outcome, WalkOutcome::kDelivered);
  EXPECT_EQ(walk.trace, (graph::Path{0, 1, 2, 3}));
}

TEST(ForwardingTest, FullStateFollowsNewPath) {
  const Instance inst = simple();
  const WalkResult walk = walk_from_source(inst, full_state(inst));
  EXPECT_EQ(walk.outcome, WalkOutcome::kDelivered);
  EXPECT_EQ(walk.trace, inst.new_path());
}

TEST(ForwardingTest, ActiveNextSwitchesPerNode) {
  const Instance inst = simple();
  const StateMask state = with_updates(inst, {0});
  EXPECT_EQ(active_next(inst, state, 0), 4u);   // updated -> new rule
  EXPECT_EQ(active_next(inst, state, 1), 2u);   // old rule
  EXPECT_EQ(active_next(inst, empty_state(inst), 4), kInvalidNode);  // none
}

TEST(ForwardingTest, BlackholeWhenNewOnlyNotInstalled) {
  const Instance inst = simple();
  // 0 flips to the new path but 4 has no rule yet.
  const WalkResult walk = walk_from_source(inst, with_updates(inst, {0}));
  EXPECT_EQ(walk.outcome, WalkOutcome::kBlackhole);
  EXPECT_EQ(walk.trace, (graph::Path{0, 4}));
}

TEST(ForwardingTest, TransientLoopDetected) {
  const Instance inst = simple();
  // 0 -> 4 -> 2 (updated: -> 1), 1 old rule -> 2: loop 2 -> 1 -> 2.
  const WalkResult walk = walk_from_source(inst, with_updates(inst, {0, 4, 2}));
  EXPECT_EQ(walk.outcome, WalkOutcome::kLoop);
  // Trace ends at the first revisited node.
  EXPECT_EQ(walk.trace, (graph::Path{0, 4, 2, 1, 2}));
}

TEST(ForwardingTest, WaypointVisitTracked) {
  const topo::Fig1 fig = topo::fig1();
  const WalkResult old_walk =
      walk_from_source(fig.instance, empty_state(fig.instance));
  EXPECT_TRUE(old_walk.visited_waypoint);
  const WalkResult new_walk =
      walk_from_source(fig.instance, full_state(fig.instance));
  EXPECT_TRUE(new_walk.visited_waypoint);
}

TEST(ForwardingTest, WaypointBypassObservable) {
  const topo::Fig1 fig = topo::fig1();
  const Instance& inst = fig.instance;
  // Update only node 2 (Y set): old prefix 1->2 then jumps to the new
  // suffix 2->9->10->11->12, skipping waypoint 3. Install the new-only
  // nodes first so the walk completes.
  const StateMask state = with_updates(inst, {2, 7, 9, 10, 11});
  const WalkResult walk = walk_from_source(inst, state);
  EXPECT_EQ(walk.outcome, WalkOutcome::kDelivered);
  EXPECT_FALSE(walk.visited_waypoint);
  EXPECT_EQ(walk.trace, (graph::Path{1, 2, 9, 10, 11, 12}));
}

TEST(ForwardingTest, ActiveGraphHasOneEdgePerRuledNode) {
  const Instance inst = simple();
  const graph::Digraph g = active_graph(inst, empty_state(inst));
  EXPECT_EQ(g.out_neighbors(0).size(), 1u);
  EXPECT_EQ(g.out_neighbors(3).size(), 0u);  // destination
  EXPECT_EQ(g.out_neighbors(4).size(), 0u);  // not installed
  const graph::Digraph full = active_graph(inst, full_state(inst));
  EXPECT_TRUE(full.has_edge(2, 1));
  EXPECT_FALSE(full.has_edge(2, 3));
}

TEST(ForwardingTest, UnionGraphContainsBothRulesForRoundNodes) {
  const Instance inst = simple();
  const StateMask applied = empty_state(inst);
  const graph::Digraph g = union_graph(inst, applied, {2});
  EXPECT_TRUE(g.has_edge(2, 3));  // old rule
  EXPECT_TRUE(g.has_edge(2, 1));  // new rule (may land any time)
  EXPECT_TRUE(g.has_edge(0, 1));  // pending elsewhere: old only
  EXPECT_FALSE(g.has_edge(0, 4));
}

TEST(ForwardingTest, UnionGraphUsesNewRuleForApplied) {
  const Instance inst = simple();
  StateMask applied = empty_state(inst);
  applied[0] = true;
  const graph::Digraph g = union_graph(inst, applied, {});
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(ForwardingTest, UnionGraphIsSupergraphOfSubsetStates) {
  const topo::Fig1 fig = topo::fig1();
  const Instance& inst = fig.instance;
  const std::vector<NodeId> round = inst.touched();
  const StateMask applied = empty_state(inst);
  const graph::Digraph u = union_graph(inst, applied, round);
  // Try a few subset states; every active edge must exist in the union.
  for (std::uint64_t bits : {0ULL, 1ULL, 5ULL, 37ULL, 255ULL}) {
    StateMask state = applied;
    for (std::size_t i = 0; i < round.size(); ++i)
      state[round[i]] = ((bits >> i) & 1ULL) != 0;
    const graph::Digraph g = active_graph(inst, state);
    for (const graph::Edge& e : g.edges())
      EXPECT_TRUE(u.has_edge(e.from, e.to))
          << "missing " << e.from << "->" << e.to << " for bits=" << bits;
  }
}

TEST(ForwardingTest, WalkVerdictAgreesWithTracedWalk) {
  // 10k random states over random instances, every node's bit drawn (bits
  // on untouched or old-only nodes must be ignored like the traced walk
  // ignores them). The trace-free verdict must match outcome and waypoint
  // visit of the traced walk - on loops and blackholes too.
  Rng rng(0xa11ce);
  std::size_t outcomes[3] = {0, 0, 0};
  for (std::size_t n = 0; n < 10000; ++n) {
    // A fresh instance every 10 states; odd batches without waypoint.
    topo::RandomInstanceOptions options;
    options.old_interior_max = 10;
    options.new_len_max = 10;
    options.with_waypoint = (n / 10) % 2 == 0;
    Rng instance_rng(n / 10);
    const Instance inst = topo::random_instance(instance_rng, options);
    StateMask state = empty_state(inst);
    for (NodeId v = 0; v < inst.node_count(); ++v)
      state[v] = rng.bernoulli(0.5);
    const WalkResult walk = walk_from_source(inst, state);
    const WalkVerdict verdict = walk_verdict(inst, state);
    ASSERT_EQ(verdict.outcome, walk.outcome)
        << inst.to_string() << " " << walk.to_string();
    ASSERT_EQ(verdict.visited_waypoint, walk.visited_waypoint)
        << inst.to_string() << " " << walk.to_string();
    ++outcomes[static_cast<std::size_t>(walk.outcome)];
  }
  EXPECT_GT(outcomes[static_cast<std::size_t>(WalkOutcome::kDelivered)], 0u);
  EXPECT_GT(outcomes[static_cast<std::size_t>(WalkOutcome::kBlackhole)], 0u);
  EXPECT_GT(outcomes[static_cast<std::size_t>(WalkOutcome::kLoop)], 0u);
}

TEST(ForwardingTest, WalkVerdictHopBoundOnSparseIds) {
  // Node ids far above the path lengths: the hop bound depends only on
  // the path lengths. Updating 160 (-> 130) while 130 keeps its old rule
  // (-> 160) closes the loop 160 -> 130 -> 160.
  Result<Instance> made = Instance::make({100, 170, 130, 160, 200},
                                         {100, 160, 130, 170, 200},
                                         NodeId{130});
  ASSERT_TRUE(made.ok());
  const Instance& inst = made.value();
  StateMask state = empty_state(inst);
  state[100] = true;  // 100 -> 160 -> 200 (old rule): a bypass
  const WalkVerdict bypass = walk_verdict(inst, state);
  EXPECT_EQ(bypass.outcome, WalkOutcome::kDelivered);
  EXPECT_FALSE(bypass.visited_waypoint);
  state[160] = true;
  EXPECT_EQ(walk_verdict(inst, state).outcome, WalkOutcome::kLoop);
  EXPECT_EQ(walk_from_source(inst, state).outcome, WalkOutcome::kLoop);
  EXPECT_TRUE(walk_verdict(inst, state).visited_waypoint);
}

TEST(ForwardingTest, WalkOutcomeNames) {
  EXPECT_STREQ(to_string(WalkOutcome::kDelivered), "delivered");
  EXPECT_STREQ(to_string(WalkOutcome::kLoop), "loop");
  EXPECT_STREQ(to_string(WalkOutcome::kBlackhole), "blackhole");
}

TEST(ForwardingTest, WalkResultToString) {
  const Instance inst = simple();
  const WalkResult walk = walk_from_source(inst, empty_state(inst));
  const std::string text = walk.to_string();
  EXPECT_NE(text.find("delivered"), std::string::npos);
  EXPECT_NE(text.find("<0,1,2,3>"), std::string::npos);
}

}  // namespace
}  // namespace tsu::update
