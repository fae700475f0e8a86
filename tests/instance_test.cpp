#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "tsu/topo/instances.hpp"
#include "tsu/update/instance.hpp"

namespace tsu::update {
namespace {

Instance make_fig1() { return topo::fig1().instance; }

// Old: <1, 2, 3, 4, 8, 5, 6, 12>, New: <1, 7, 5, 3, 2, 9, 10, 11, 12>, wp=3.

TEST(InstanceTest, MakeValidatesPaths) {
  EXPECT_TRUE(Instance::make({1, 2, 3}, {1, 4, 3}).ok());
  EXPECT_FALSE(Instance::make({1}, {1, 2}).ok());
  EXPECT_FALSE(Instance::make({1, 2, 3}, {2, 3}).ok());
  EXPECT_FALSE(Instance::make({1, 2, 3}, {1, 4, 3}, NodeId{2}).ok());
}

TEST(InstanceTest, EndpointsAndWaypoint) {
  const Instance inst = make_fig1();
  EXPECT_EQ(inst.source(), 1u);
  EXPECT_EQ(inst.destination(), 12u);
  ASSERT_TRUE(inst.has_waypoint());
  EXPECT_EQ(*inst.waypoint(), 3u);
  EXPECT_EQ(inst.node_count(), 13u);
}

TEST(InstanceTest, RolesClassifyNodes) {
  const Instance inst = make_fig1();
  EXPECT_EQ(inst.role(1), NodeRole::kBoth);    // source
  EXPECT_EQ(inst.role(3), NodeRole::kBoth);    // waypoint
  EXPECT_EQ(inst.role(4), NodeRole::kOldOnly);
  EXPECT_EQ(inst.role(8), NodeRole::kOldOnly);
  EXPECT_EQ(inst.role(6), NodeRole::kOldOnly);
  EXPECT_EQ(inst.role(7), NodeRole::kNewOnly);
  EXPECT_EQ(inst.role(9), NodeRole::kNewOnly);
  EXPECT_EQ(inst.role(0), NodeRole::kUntouched);
}

TEST(InstanceTest, NextHops) {
  const Instance inst = make_fig1();
  EXPECT_EQ(inst.old_next(1), 2u);
  EXPECT_EQ(inst.new_next(1), 7u);
  EXPECT_EQ(inst.old_next(3), 4u);
  EXPECT_EQ(inst.new_next(3), 2u);
  EXPECT_EQ(inst.old_next(12), kInvalidNode);  // destination
  EXPECT_EQ(inst.new_next(12), kInvalidNode);
  EXPECT_EQ(inst.old_next(7), kInvalidNode);   // new-only node
  EXPECT_EQ(inst.new_next(4), kInvalidNode);   // old-only node
}

TEST(InstanceTest, PositionsMatchPaths) {
  const Instance inst = make_fig1();
  EXPECT_EQ(*inst.old_pos(1), 0u);
  EXPECT_EQ(*inst.old_pos(12), 7u);
  EXPECT_EQ(*inst.new_pos(7), 1u);
  EXPECT_FALSE(inst.old_pos(7).has_value());
  EXPECT_FALSE(inst.new_pos(4).has_value());
}

TEST(InstanceTest, TouchedSetIsNewPathMinusDestination) {
  const Instance inst = make_fig1();
  std::vector<NodeId> touched = inst.touched();
  std::sort(touched.begin(), touched.end());
  // All new-path nodes change their next hop (or get installed) except 12.
  EXPECT_EQ(touched, (std::vector<NodeId>{1, 2, 3, 5, 7, 9, 10, 11}));
  EXPECT_TRUE(inst.is_touched(5));
  EXPECT_FALSE(inst.is_touched(12));
  EXPECT_FALSE(inst.is_touched(4));
}

TEST(InstanceTest, UnchangedNodesNotTouched) {
  // Node 2 keeps the same next hop in both paths: not touched.
  Result<Instance> inst = Instance::make({1, 2, 3, 4}, {1, 2, 3, 5, 4});
  ASSERT_TRUE(inst.ok());
  EXPECT_FALSE(inst.value().is_touched(1));  // 1 -> 2 in both
  EXPECT_FALSE(inst.value().is_touched(2));  // 2 -> 3 in both
  EXPECT_TRUE(inst.value().is_touched(3));   // 3 -> 4 vs 3 -> 5
  std::vector<NodeId> touched = inst.value().touched();
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<NodeId>{3, 5}));
}

TEST(InstanceTest, OldOnlyNodes) {
  const Instance inst = make_fig1();
  std::vector<NodeId> old_only = inst.old_only_nodes();
  std::sort(old_only.begin(), old_only.end());
  EXPECT_EQ(old_only, (std::vector<NodeId>{4, 6, 8}));
}

TEST(InstanceTest, ConflictSetsOnFig1) {
  const Instance inst = make_fig1();
  // X = new-prefix nodes on the old suffix: node 5 (before wp on new,
  // after wp on old).
  EXPECT_EQ(inst.set_x(), (std::vector<NodeId>{5}));
  // Y = old-prefix nodes on the new suffix: node 2.
  EXPECT_EQ(inst.set_y(), (std::vector<NodeId>{2}));
}

TEST(InstanceTest, ConflictSetsEmptyWithoutWaypoint) {
  Result<Instance> inst = Instance::make({1, 2, 3}, {1, 4, 3});
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(inst.value().set_x().empty());
  EXPECT_TRUE(inst.value().set_y().empty());
}

TEST(InstanceTest, ConflictSetsEmptyOnDisjointInterior) {
  // Old and new share only endpoints and wp; no X/Y conflicts.
  Result<Instance> inst =
      Instance::make({1, 2, 3, 4, 9}, {1, 5, 3, 6, 9}, NodeId{3});
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(inst.value().set_x().empty());
  EXPECT_TRUE(inst.value().set_y().empty());
}

TEST(InstanceTest, IdenticalPathsHaveNoTouchedNodes) {
  Result<Instance> inst = Instance::make({1, 2, 3}, {1, 2, 3});
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(inst.value().touched().empty());
}

TEST(InstanceTest, ToStringShowsPathsAndWaypoint) {
  const Instance inst = make_fig1();
  const std::string text = inst.to_string();
  EXPECT_NE(text.find("old=<1, 2, 3, 4, 8, 5, 6, 12>"), std::string::npos);
  EXPECT_NE(text.find("wp=3"), std::string::npos);
}

TEST(InstanceTest, AccessorsOnSparseNodeIds) {
  // Node ids up to 9000 on 4- and 5-node paths: every accessor must agree
  // with a direct reading of the paths, and ids past node_count() read as
  // untouched.
  const graph::Path old_path{5000, 7, 42, 64, 9000};
  const graph::Path new_path{5000, 300, 42, 7, 9000};
  Result<Instance> made = Instance::make(old_path, new_path, NodeId{42});
  ASSERT_TRUE(made.ok());
  const Instance& inst = made.value();
  EXPECT_EQ(inst.node_count(), 9001u);
  EXPECT_EQ(inst.source(), 5000u);
  EXPECT_EQ(inst.destination(), 9000u);

  const auto index_of = [](const graph::Path& path,
                           NodeId v) -> std::optional<std::size_t> {
    const auto it = std::find(path.begin(), path.end(), v);
    if (it == path.end()) return std::nullopt;
    return static_cast<std::size_t>(it - path.begin());
  };
  for (NodeId v = 0; v < 9100; ++v) {
    const auto po = index_of(old_path, v);
    const auto pn = index_of(new_path, v);
    EXPECT_EQ(inst.old_pos(v), po) << v;
    EXPECT_EQ(inst.new_pos(v), pn) << v;
    EXPECT_EQ(inst.on_old(v), po.has_value()) << v;
    EXPECT_EQ(inst.on_new(v), pn.has_value()) << v;
    const NodeId old_next =
        po && *po + 1 < old_path.size() ? old_path[*po + 1] : kInvalidNode;
    const NodeId new_next =
        pn && *pn + 1 < new_path.size() ? new_path[*pn + 1] : kInvalidNode;
    EXPECT_EQ(inst.old_next(v), old_next) << v;
    EXPECT_EQ(inst.new_next(v), new_next) << v;
    const NodeRole role = po && pn ? NodeRole::kBoth
                          : po     ? NodeRole::kOldOnly
                          : pn     ? NodeRole::kNewOnly
                                   : NodeRole::kUntouched;
    EXPECT_EQ(inst.role(v), role) << v;
    EXPECT_EQ(inst.is_touched(v),
              pn.has_value() && v != 9000 && old_next != new_next)
        << v;
  }
  EXPECT_EQ(inst.touched(), (std::vector<NodeId>{5000, 300, 42, 7}));
  EXPECT_EQ(inst.old_only_nodes(), (std::vector<NodeId>{64}));
  EXPECT_EQ(inst.set_x(), (std::vector<NodeId>{}));
  EXPECT_EQ(inst.set_y(), (std::vector<NodeId>{7}));
}

TEST(InstanceTest, RoleNames) {
  EXPECT_STREQ(to_string(NodeRole::kBoth), "both");
  EXPECT_STREQ(to_string(NodeRole::kNewOnly), "new-only");
}

}  // namespace
}  // namespace tsu::update
