// The routing-policy update instance: the formal object all schedulers and
// the transient-state checker operate on.
//
// An instance is a pair of simple paths (old route, new route) between the
// same source and destination, plus an optional security waypoint that lies
// on both (the firewall/IDS of the paper's Figure 1). Every node on a path
// holds at most one forwarding rule for the flow being updated:
//   - nodes on the old path start with their old next-hop installed,
//   - updating a node activates its new next-hop (installing it first if the
//     node is not on the old path),
//   - nodes only on the old path keep forwarding until an optional cleanup
//     round deletes their rule.
// The asynchronous-rounds semantics over these rules is defined in
// forwarding.hpp and in the README section "Update semantics and the
// planner/checker kernel".
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "tsu/graph/path.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/status.hpp"

namespace tsu::update {

// Where a node sits relative to the two routes.
enum class NodeRole : unsigned char {
  kUntouched,  // on neither path
  kOldOnly,    // only on the old path (rule persists until cleanup)
  kNewOnly,    // only on the new path (rule must be installed)
  kBoth,       // on both paths (rule is modified)
};

const char* to_string(NodeRole role) noexcept;

class Instance {
 public:
  // Validates and builds an instance. Fails if the paths are not simple,
  // do not share endpoints, hold more than kMaxPathNodes nodes, or the
  // waypoint is not strictly interior to both paths.
  static Result<Instance> make(graph::Path old_path, graph::Path new_path,
                               std::optional<NodeId> waypoint = std::nullopt);

  const graph::Path& old_path() const noexcept { return old_; }
  const graph::Path& new_path() const noexcept { return new_; }
  NodeId source() const noexcept { return old_.front(); }
  NodeId destination() const noexcept { return old_.back(); }
  std::optional<NodeId> waypoint() const noexcept { return waypoint_; }
  bool has_waypoint() const noexcept { return waypoint_.has_value(); }

  // 1 + the largest node id mentioned by either path.
  std::size_t node_count() const noexcept { return nodes_.size(); }

  NodeRole role(NodeId v) const noexcept;
  bool on_old(NodeId v) const noexcept {
    return positions(v).old_pos != kNoPosition;
  }
  bool on_new(NodeId v) const noexcept {
    return positions(v).new_pos != kNoPosition;
  }

  // Where v sits on each path; kNoPosition when it is off that path or
  // past node_count(). The planner/checker kernel reads these raw. Sixteen
  // bits each keep a row at 4 bytes, so make() rejects paths longer than
  // kMaxPathNodes.
  static constexpr std::uint16_t kNoPosition =
      std::numeric_limits<std::uint16_t>::max();
  static constexpr std::size_t kMaxPathNodes = kNoPosition;
  struct Positions {
    std::uint16_t old_pos = kNoPosition;
    std::uint16_t new_pos = kNoPosition;
  };
  Positions positions(NodeId v) const noexcept {
    return v < nodes_.size() ? nodes_[v] : Positions{};
  }

  // Next hop under the old (resp. new) rule; kInvalidNode if the node has
  // no such rule (not on that path, or is the destination).
  NodeId old_next(NodeId v) const noexcept {
    return next_on(old_, positions(v).old_pos);
  }
  NodeId new_next(NodeId v) const noexcept {
    return next_on(new_, positions(v).new_pos);
  }

  // Nodes whose forwarding behaviour actually changes (new rule differs from
  // old, or a rule must be freshly installed); excludes the destination.
  // This is exactly the set a schedule must partition into rounds.
  const std::vector<NodeId>& touched() const noexcept { return touched_; }
  bool is_touched(NodeId v) const noexcept;

  // Nodes on the old path only (candidates for the cleanup round).
  std::vector<NodeId> old_only_nodes() const;

  // --- waypoint segment structure (used by WayUp; see the README section
  // "Update semantics and the planner/checker kernel") ---
  // Sets are empty when the instance has no waypoint.
  // O1/N1: nodes strictly before the waypoint on the old/new path (incl. s);
  // O2/N2: nodes strictly after it (incl. d).
  // X = N1 ∩ O2: new-prefix nodes on the old suffix (bypass hazard if stale).
  // Y = O1 ∩ N2: old-prefix nodes on the new suffix (bypass hazard if eager).
  std::vector<NodeId> set_x() const;
  std::vector<NodeId> set_y() const;

  // Position of v on the old path, if any.
  std::optional<std::size_t> old_pos(NodeId v) const noexcept;
  std::optional<std::size_t> new_pos(NodeId v) const noexcept;

  // Stable identity of this instance: an FNV-1a fold of both paths and the
  // waypoint. It cannot key an artifact that also depends on other inputs:
  // a compiled plan carries its flow id, and two templates of a service
  // pool may share paths.
  std::uint64_t identity_digest() const noexcept;

  std::string to_string() const;

 private:
  static NodeId next_on(const graph::Path& path, std::uint32_t pos) noexcept {
    return pos != kNoPosition && pos + 1 < path.size() ? path[pos + 1]
                                                       : kInvalidNode;
  }

  Instance() = default;

  graph::Path old_;
  graph::Path new_;
  std::optional<NodeId> waypoint_;
  // One dense row of positions per node id (4 bytes); next hops, roles and
  // touched-ness derive from it and the paths.
  std::vector<Positions> nodes_;
  std::vector<NodeId> touched_;
};

}  // namespace tsu::update
