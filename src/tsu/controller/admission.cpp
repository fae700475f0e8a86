#include "tsu/controller/admission.hpp"

#include <algorithm>

#include "tsu/util/assert.hpp"

namespace tsu::controller {

const char* to_string(AdmissionPolicy policy) noexcept {
  switch (policy) {
    case AdmissionPolicy::kBlind: return "blind";
    case AdmissionPolicy::kConflictAware: return "conflict_aware";
  }
  return "?";
}

Footprint Footprint::of(const UpdateRequest& request) {
  Footprint footprint;
  for (const std::vector<RoundOp>& round : request.rounds)
    for (const RoundOp& op : round)
      footprint.add(RuleRef{op.node, op.mod.table, op.mod.match});
  return footprint;
}

void Footprint::add(RuleRef ref) {
  if (std::find(rules_.begin(), rules_.end(), ref) != rules_.end()) return;
  rules_.push_back(std::move(ref));
}

namespace {

bool contains(const std::vector<AdmissionQueue::Id>& ids,
              AdmissionQueue::Id id) noexcept {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// Removes one occurrence (order is irrelevant: blocked_on is a set in
// spirit). Returns whether anything was erased.
bool erase_one(std::vector<AdmissionQueue::Id>& ids,
               AdmissionQueue::Id id) noexcept {
  const auto it = std::find(ids.begin(), ids.end(), id);
  if (it == ids.end()) return false;
  *it = ids.back();
  ids.pop_back();
  return true;
}

// Smallest power of two >= n (min 8): the headroom factor that turns
// capacity records into doubling events.
std::size_t headroom(std::size_t n) noexcept {
  std::size_t cap = 8;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

void AdmissionQueue::reserve_bucket_record(std::size_t needed) {
  if (needed <= bucket_reserve_) return;
  bucket_reserve_ = headroom(needed);
  for (auto& [node_id, bucket] : by_node_) bucket.reserve(bucket_reserve_);
  for (auto& node : bucket_pool_) node.mapped().reserve(bucket_reserve_);
}

void AdmissionQueue::reserve_edge_record(std::size_t needed) {
  if (needed <= edge_reserve_) return;
  edge_reserve_ = headroom(needed);
  for (auto& [entry_id, entry] : entries_) {
    entry.blocked_on.reserve(edge_reserve_);
    entry.blocks.reserve(edge_reserve_);
  }
  for (auto& node : entry_pool_) {
    node.mapped().blocked_on.reserve(edge_reserve_);
    node.mapped().blocks.reserve(edge_reserve_);
  }
}

AdmissionQueue::Entry& AdmissionQueue::insert_entry(Id id) {
  if (entry_pool_.empty()) {
    Entry& fresh = entries_.emplace(id, Entry{}).first->second;
    // A fresh entry means a live-count record (itself an allocation). An
    // entry's edge lists can never outgrow the live count (every edge
    // names a distinct live peer), so raising the edge reserve here - and
    // only here - pins all edge growth to these warmup-ramp moments.
    reserve_edge_record(entries_.size());
    fresh.footprint.reserve(footprint_high_water_);
    fresh.blocked_on.reserve(edge_reserve_);
    fresh.blocks.reserve(edge_reserve_);
    return fresh;
  }
  EntryMap::node_type node = std::move(entry_pool_.back());
  entry_pool_.pop_back();
  node.key() = id;
  return entries_.insert(std::move(node)).position->second;
}

AdmissionQueue::Bucket& AdmissionQueue::insert_bucket(NodeId node_id) {
  if (bucket_pool_.empty()) {
    Bucket& fresh = by_node_.emplace(node_id, Bucket{}).first->second;
    fresh.reserve(bucket_reserve_);
    return fresh;
  }
  BucketMap::node_type node = std::move(bucket_pool_.back());
  bucket_pool_.pop_back();
  node.key() = node_id;
  return by_node_.insert(std::move(node)).position->second;
}

void AdmissionQueue::recycle_entry(EntryMap::iterator it) {
  EntryMap::node_type node = entries_.extract(it);
  // Clear in place: the vectors (and the footprint's, via copy-assign on
  // reuse) keep their high-water capacity for the next occupant.
  node.mapped().blocked_on.clear();
  node.mapped().blocks.clear();
  entry_pool_.push_back(std::move(node));
}

void AdmissionQueue::recycle_bucket(BucketMap::iterator it) {
  BucketMap::node_type node = by_node_.extract(it);
  node.mapped().clear();
  bucket_pool_.push_back(std::move(node));
}

bool AdmissionQueue::submit(Id id, const Footprint& footprint) {
  TSU_ASSERT_MSG(entries_.find(id) == entries_.end(),
                 "admission id submitted twice");
  if (footprint.size() > footprint_high_water_) {
    // A footprint larger than anything seen before: a cold event (first
    // submission of a template, when the plan compiles anyway). Grow every
    // entry - live and pooled - now, so no warm copy-assign below ever has
    // to: otherwise a rarely-reused deep-pool entry could reallocate
    // arbitrarily late, breaking the zero-allocation steady state.
    footprint_high_water_ = footprint.size();
    for (auto& [entry_id, live] : entries_)
      live.footprint.reserve(footprint_high_water_);
    for (auto& node : entry_pool_)
      node.mapped().footprint.reserve(footprint_high_water_);
  }
  Entry& entry = insert_entry(id);
  entry.seq = next_seq_++;
  entry.footprint = footprint;  // copy-assign: pooled capacity reused

  // Blind admission draws no edges - capacity is the only gate - and
  // keeps no rule index, so it skips both loops and their Match copies.
  if (policy_ == AdmissionPolicy::kBlind) return true;

  // Rule-level dependency tracking: consult only rules co-located on the
  // switches this footprint touches. The entry is already in the map but
  // its rules are not yet in the index, so it never sees itself as a
  // conflict.
  for (const RuleRef& rule : footprint.rules()) {
    const auto bucket = by_node_.find(rule.node);
    if (bucket == by_node_.end()) continue;
    for (const auto& [other_id, other_rule] : bucket->second) {
      if (!rule.conflicts_with(other_rule)) continue;
      if (!contains(entry.blocked_on, other_id)) {
        Entry& blocker = entries_.at(other_id);
        reserve_edge_record(entry.blocked_on.size() + 1);
        reserve_edge_record(blocker.blocks.size() + 1);
        entry.blocked_on.push_back(other_id);
        blocker.blocks.push_back(id);
        ++conflict_edges_;
      }
    }
  }
  for (const RuleRef& rule : footprint.rules()) {
    auto bucket = by_node_.find(rule.node);
    Bucket& rules =
        bucket == by_node_.end() ? insert_bucket(rule.node) : bucket->second;
    reserve_bucket_record(rules.size() + 1);
    rules.emplace_back(id, rule);
  }

  const bool admitted = entry.blocked_on.empty();
  if (!admitted) ++blocked_submissions_;
  return admitted;
}

bool AdmissionQueue::admissible(Id id) const noexcept {
  const auto it = entries_.find(id);
  return it != entries_.end() && it->second.blocked_on.empty();
}

const std::vector<AdmissionQueue::Id>& AdmissionQueue::release(Id id) {
  const auto it = entries_.find(id);
  TSU_ASSERT_MSG(it != entries_.end(), "release of unknown admission id");

  // Drop this request's rules from the per-switch index (only populated
  // under conflict-aware admission).
  if (policy_ == AdmissionPolicy::kConflictAware) {
    for (const RuleRef& rule : it->second.footprint.rules()) {
      const auto bucket = by_node_.find(rule.node);
      if (bucket == by_node_.end()) continue;
      auto& entries = bucket->second;
      entries.erase(
          std::remove_if(entries.begin(), entries.end(),
                         [id](const auto& e) { return e.first == id; }),
          entries.end());
      if (entries.empty()) recycle_bucket(bucket);
    }
  }

  unblocked_scratch_.clear();
  for (const Id waiter : it->second.blocks) {
    const auto waiter_it = entries_.find(waiter);
    if (waiter_it == entries_.end()) continue;  // already released
    Entry& entry = waiter_it->second;
    if (erase_one(entry.blocked_on, id) && entry.blocked_on.empty())
      unblocked_scratch_.push_back(waiter);
  }
  recycle_entry(it);

  std::sort(unblocked_scratch_.begin(), unblocked_scratch_.end(),
            [this](Id a, Id b) {
              return entries_.at(a).seq < entries_.at(b).seq;
            });
  return unblocked_scratch_;
}

std::size_t AdmissionQueue::blocked() const noexcept {
  std::size_t count = 0;
  for (const auto& [id, entry] : entries_)
    if (!entry.blocked_on.empty()) ++count;
  return count;
}

}  // namespace tsu::controller
