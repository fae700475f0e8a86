#include <gtest/gtest.h>

#include <vector>

#include "tsu/flow/match.hpp"
#include "tsu/flow/table.hpp"

namespace tsu::flow {
namespace {

Packet packet(FlowId flow, NodeId src = 1, NodeId dst = 12,
              std::uint32_t in_port = 0) {
  Packet p;
  p.flow = flow;
  p.src_host = src;
  p.dst_host = dst;
  p.in_port = in_port;
  return p;
}

// ------------------------------------------------------------------ Match --

TEST(MatchTest, WildcardMatchesEverything) {
  const Match m = Match::wildcard();
  EXPECT_TRUE(m.matches(packet(1)));
  EXPECT_TRUE(m.matches(packet(999, 5, 6, 7)));
}

TEST(MatchTest, ExactFlowMatches) {
  const Match m = Match::exact_flow(7);
  EXPECT_TRUE(m.matches(packet(7)));
  EXPECT_FALSE(m.matches(packet(8)));
}

TEST(MatchTest, MultiFieldConjunction) {
  Match m;
  m.flow = 1;
  m.src_host = 2;
  EXPECT_TRUE(m.matches(packet(1, 2)));
  EXPECT_FALSE(m.matches(packet(1, 3)));
  EXPECT_FALSE(m.matches(packet(2, 2)));
}

TEST(MatchTest, InPortField) {
  Match m;
  m.in_port = 4;
  EXPECT_TRUE(m.matches(packet(1, 2, 3, 4)));
  EXPECT_FALSE(m.matches(packet(1, 2, 3, 5)));
}

TEST(MatchTest, SubsumesWildcardOverConcrete) {
  const Match wild = Match::wildcard();
  const Match narrow = Match::exact_flow(1);
  EXPECT_TRUE(wild.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wild));
  EXPECT_TRUE(narrow.subsumes(narrow));
}

TEST(MatchTest, SubsumesDifferentValuesFalse) {
  const Match a = Match::exact_flow(1);
  const Match b = Match::exact_flow(2);
  EXPECT_FALSE(a.subsumes(b));
  EXPECT_FALSE(b.subsumes(a));
}

TEST(MatchTest, SpecificityCountsFields) {
  EXPECT_EQ(Match::wildcard().specificity(), 0);
  EXPECT_EQ(Match::exact_flow(1).specificity(), 1);
  Match m;
  m.flow = 1;
  m.src_host = 2;
  m.dst_host = 3;
  m.in_port = 4;
  EXPECT_EQ(m.specificity(), 4);
}

TEST(MatchTest, ToStringShowsFieldsOrStar) {
  EXPECT_EQ(Match::wildcard().to_string(), "{*}");
  EXPECT_EQ(Match::exact_flow(3).to_string(), "{flow=3}");
}

TEST(ActionTest, Constructors) {
  EXPECT_EQ(Action::forward(5).kind, ActionKind::kForward);
  EXPECT_EQ(Action::forward(5).port, 5u);
  EXPECT_EQ(Action::deliver().kind, ActionKind::kDeliver);
  EXPECT_EQ(Action::drop().kind, ActionKind::kDrop);
}

// -------------------------------------------------------------- FlowTable --

TEST(FlowTableTest, EmptyLookupMisses) {
  const FlowTable t;
  EXPECT_FALSE(t.lookup(packet(1)).has_value());
}

TEST(FlowTableTest, AddAndLookup) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  const auto rule = t.lookup(packet(1));
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->action, Action::forward(2));
  EXPECT_FALSE(t.lookup(packet(2)).has_value());
}

TEST(FlowTableTest, HigherPriorityWins) {
  FlowTable t;
  t.add(FlowRule{Match::wildcard(), Action::drop(), 1, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(9), 100, 0});
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(9));
  EXPECT_EQ(t.lookup(packet(2))->action, Action::drop());
}

TEST(FlowTableTest, SpecificityBreaksPriorityTies) {
  FlowTable t;
  t.add(FlowRule{Match::wildcard(), Action::drop(), 10, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(4), 10, 0});
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(4));
}

TEST(FlowTableTest, AddReplacesIdenticalMatchAndPriority) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(3), 100, 0});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(3));
}

TEST(FlowTableTest, AddKeepsDistinctPriorities) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(3), 50, 0});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(2));  // prio 100
}

TEST(FlowTableTest, ModifyRewritesAction) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  const std::size_t n = t.modify(Match::exact_flow(1), 100,
                                 Action::forward(7), 42);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(t.size(), 1u);
  const auto rule = t.lookup(packet(1));
  EXPECT_EQ(rule->action, Action::forward(7));
  EXPECT_EQ(rule->cookie, 42u);
}

TEST(FlowTableTest, ModifyOnMissBehavesLikeAdd) {
  FlowTable t;
  const std::size_t n = t.modify(Match::exact_flow(5), 80,
                                 Action::forward(2), 0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(packet(5))->priority, 80);
}

TEST(FlowTableTest, RemoveNonStrictSubsumption) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(2), Action::forward(3), 100, 0});
  // Wildcard delete clears everything it subsumes.
  EXPECT_EQ(t.remove(Match::wildcard()), 2u);
  EXPECT_TRUE(t.empty());
}

TEST(FlowTableTest, RemoveExactOnlyTouchesThatFlow) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(2), Action::forward(3), 100, 0});
  EXPECT_EQ(t.remove(Match::exact_flow(1)), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.lookup(packet(2)).has_value());
}

TEST(FlowTableTest, RemoveStrictNeedsExactPriority) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  EXPECT_FALSE(t.remove_strict(Match::exact_flow(1), 99));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.remove_strict(Match::exact_flow(1), 100));
  EXPECT_TRUE(t.empty());
}

TEST(FlowTableTest, InsertionOrderBreaksFullTies) {
  FlowTable t;
  Match m1;
  m1.flow = 1;
  Match m2;
  m2.src_host = 1;
  // Same priority, same specificity; first-inserted wins.
  t.add(FlowRule{m1, Action::forward(10), 50, 0});
  t.add(FlowRule{m2, Action::forward(20), 50, 0});
  EXPECT_EQ(t.lookup(packet(1, 1))->action, Action::forward(10));
}

TEST(FlowTableTest, ClearEmptiesTable) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.clear();
  EXPECT_TRUE(t.empty());
}

// Adds after a clear still order by priority, then specificity, then
// insertion: the insertion sequence clears with the rules.
TEST(FlowTableTest, AddsAfterClearKeepTheRuleOrder) {
  FlowTable t;
  for (FlowId flow = 1; flow <= 4; ++flow)
    t.add(FlowRule{Match::exact_flow(flow), Action::forward(flow), 100, 0});
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.lookup(packet(1)).has_value());

  Match by_flow;
  by_flow.flow = 1;
  Match by_src;
  by_src.src_host = 1;
  Match both = by_flow;
  both.src_host = 1;
  t.add(FlowRule{by_src, Action::forward(30), 50, 0});
  t.add(FlowRule{Match::wildcard(), Action::drop(), 10, 0});
  t.add(FlowRule{by_flow, Action::forward(40), 50, 0});
  t.add(FlowRule{both, Action::forward(60), 50, 0});
  t.add(FlowRule{Match::exact_flow(2), Action::forward(70), 80, 0});
  ASSERT_EQ(t.size(), 5u);
  // Priority 80 first; among the 50s the two-field match, then the
  // one-field matches in insertion order; the wildcard last.
  const std::vector<Action> order{Action::forward(70), Action::forward(60),
                                  Action::forward(30), Action::forward(40),
                                  Action::drop()};
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(t.rules()[i].action, order[i]) << "rule " << i;
  EXPECT_EQ(t.lookup(packet(1, 1))->action, Action::forward(60));
  EXPECT_EQ(t.lookup(packet(1, 2))->action, Action::forward(40));
  EXPECT_EQ(t.lookup(packet(3, 1))->action, Action::forward(30));
  EXPECT_EQ(t.lookup(packet(3, 2))->action, Action::drop());
}

TEST(FlowTableTest, ToStringListsRules) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  EXPECT_NE(t.to_string().find("prio=100"), std::string::npos);
}

}  // namespace
}  // namespace tsu::flow
