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
  if (old_path.size() > kMaxPathNodes || new_path.size() > kMaxPathNodes)
    return make_error(Errc::kInvalidArgument,
                      "paths may hold at most " +
                          std::to_string(kMaxPathNodes) + " nodes");

  // Every block is kept at its exact size: planners and services hold
  // instances by the thousand.
  Instance inst;
  inst.old_ = std::move(old_path);
  inst.new_ = std::move(new_path);
  inst.old_.shrink_to_fit();
  inst.new_.shrink_to_fit();
  inst.waypoint_ = waypoint;

  NodeId max_node = 0;
  for (const NodeId v : inst.old_) max_node = std::max(max_node, v);
  for (const NodeId v : inst.new_) max_node = std::max(max_node, v);
  inst.nodes_.assign(static_cast<std::size_t>(max_node) + 1, Positions{});
  for (std::size_t i = 0; i < inst.old_.size(); ++i)
    inst.nodes_[inst.old_[i]].old_pos = static_cast<std::uint16_t>(i);
  for (std::size_t i = 0; i < inst.new_.size(); ++i)
    inst.nodes_[inst.new_[i]].new_pos = static_cast<std::uint16_t>(i);

  // A node is "touched" when its active rule must change: it is on the new
  // path (so it ends up with its new next-hop), it is not the destination,
  // and either it has no old rule (install) or the next-hop differs.
  const auto touched = [&inst](NodeId v) { return inst.is_touched(v); };
  inst.touched_.reserve(static_cast<std::size_t>(
      std::count_if(inst.new_.begin(), inst.new_.end(), touched)));
  for (const NodeId v : inst.new_)
    if (touched(v)) inst.touched_.push_back(v);

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
  return on_new(v) && v != destination() && old_next(v) != new_next(v);
}

std::vector<NodeId> Instance::old_only_nodes() const {
  const auto old_only = [this](NodeId v) { return !on_new(v); };
  std::vector<NodeId> result;
  result.reserve(static_cast<std::size_t>(
      std::count_if(old_.begin(), old_.end(), old_only)));
  for (const NodeId v : old_)
    if (old_only(v)) result.push_back(v);
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
  return positions(v).old_pos;
}

std::optional<std::size_t> Instance::new_pos(NodeId v) const noexcept {
  if (!on_new(v)) return std::nullopt;
  return positions(v).new_pos;
}

std::string Instance::to_string() const {
  std::ostringstream out;
  out << "old=" << graph::to_string(old_) << " new=" << graph::to_string(new_);
  if (waypoint_.has_value()) out << " wp=" << *waypoint_;
  return out.str();
}

}  // namespace tsu::update
