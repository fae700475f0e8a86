#include "tsu/update/instance.hpp"

#include <algorithm>
#include <sstream>

namespace tsu::update {

std::uint64_t Instance::identity_digest() const noexcept {
  // FNV-1a over (old path, new path, waypoint), length-prefixed so path
  // boundaries cannot alias.
  constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t digest = kOffset;
  const auto mix = [&digest](std::uint64_t value) {
    digest ^= value;
    digest *= kPrime;
  };
  mix(old_.size());
  for (const NodeId v : old_) mix(v);
  mix(new_.size());
  for (const NodeId v : new_) mix(v);
  mix(waypoint_.has_value() ? static_cast<std::uint64_t>(*waypoint_) + 1 : 0);
  return digest;
}

const char* to_string(NodeRole role) noexcept {
  switch (role) {
    case NodeRole::kUntouched: return "untouched";
    case NodeRole::kOldOnly: return "old-only";
    case NodeRole::kNewOnly: return "new-only";
    case NodeRole::kBoth: return "both";
  }
  return "?";
}

Result<Instance> Instance::make(graph::Path old_path, graph::Path new_path,
                                std::optional<NodeId> waypoint) {
  if (Status s = graph::validate_update_paths(old_path, new_path, waypoint);
      !s.ok())
    return s.error();

  Instance inst;
  inst.old_ = std::move(old_path);
  inst.new_ = std::move(new_path);
  inst.waypoint_ = waypoint;

  NodeId max_node = 0;
  for (const NodeId v : inst.old_) max_node = std::max(max_node, v);
  for (const NodeId v : inst.new_) max_node = std::max(max_node, v);
  inst.nodes_.assign(static_cast<std::size_t>(max_node) + 1, NodeInfo{});

  for (std::size_t i = 0; i < inst.old_.size(); ++i) {
    NodeInfo& info = inst.nodes_[inst.old_[i]];
    info.old_pos = static_cast<std::uint32_t>(i);
    if (i + 1 < inst.old_.size()) info.old_next = inst.old_[i + 1];
  }
  for (std::size_t i = 0; i < inst.new_.size(); ++i) {
    NodeInfo& info = inst.nodes_[inst.new_[i]];
    info.new_pos = static_cast<std::uint32_t>(i);
    if (i + 1 < inst.new_.size()) info.new_next = inst.new_[i + 1];
  }

  // A node is "touched" when its active rule must change: it is on the new
  // path (so it ends up with its new next-hop), it is not the destination,
  // and either it has no old rule (install) or the next-hop differs.
  for (const NodeId v : inst.new_)
    if (inst.is_touched(v)) inst.touched_.push_back(v);

  return inst;
}

NodeRole Instance::role(NodeId v) const noexcept {
  const bool old_rule = on_old(v);
  const bool new_rule = on_new(v);
  if (old_rule && new_rule) return NodeRole::kBoth;
  if (old_rule) return NodeRole::kOldOnly;
  if (new_rule) return NodeRole::kNewOnly;
  return NodeRole::kUntouched;
}

bool Instance::is_touched(NodeId v) const noexcept {
  return on_new(v) && v != destination() &&
         nodes_[v].old_next != nodes_[v].new_next;
}

std::vector<NodeId> Instance::old_only_nodes() const {
  std::vector<NodeId> result;
  for (const NodeId v : old_)
    if (role(v) == NodeRole::kOldOnly) result.push_back(v);
  return result;
}

std::vector<NodeId> Instance::set_x() const {
  std::vector<NodeId> result;
  if (!waypoint_.has_value()) return result;
  const NodeId w = *waypoint_;
  const std::size_t w_old = *old_pos(w);
  const std::size_t w_new = *new_pos(w);
  // X = nodes strictly before w on the new path and strictly after w on the
  // old path.
  for (std::size_t i = 0; i < w_new; ++i) {
    const NodeId v = new_[i];
    const auto po = old_pos(v);
    if (po.has_value() && *po > w_old) result.push_back(v);
  }
  return result;
}

std::vector<NodeId> Instance::set_y() const {
  std::vector<NodeId> result;
  if (!waypoint_.has_value()) return result;
  const NodeId w = *waypoint_;
  const std::size_t w_old = *old_pos(w);
  const std::size_t w_new = *new_pos(w);
  // Y = nodes strictly before w on the old path and strictly after w on the
  // new path.
  for (std::size_t i = w_new + 1; i < new_.size(); ++i) {
    const NodeId v = new_[i];
    const auto po = old_pos(v);
    if (po.has_value() && *po < w_old) result.push_back(v);
  }
  return result;
}

std::optional<std::size_t> Instance::old_pos(NodeId v) const noexcept {
  if (!on_old(v)) return std::nullopt;
  return nodes_[v].old_pos;
}

std::optional<std::size_t> Instance::new_pos(NodeId v) const noexcept {
  if (!on_new(v)) return std::nullopt;
  return nodes_[v].new_pos;
}

std::string Instance::to_string() const {
  std::ostringstream out;
  out << "old=" << graph::to_string(old_) << " new=" << graph::to_string(new_);
  if (waypoint_.has_value()) out << " wp=" << *waypoint_;
  return out.str();
}

}  // namespace tsu::update
