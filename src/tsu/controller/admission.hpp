// Conflict-aware admission for the concurrent update engine.
//
// PR 1's `max_in_flight` admits blindly: two in-flight updates whose
// FlowMods touch overlapping rules can race on rule installs - exactly the
// transient-violation window the paper exists to close. The cure is
// rule-level dependency tracking: every UpdateRequest has a *footprint*,
// the set of (switch, table, match) triples its FlowMods touch across all
// rounds, and a request is admitted the moment its footprint no longer
// overlaps anything live. Overlapping updates queue behind their conflicts
// instead of either racing or serializing globally.
//
// The AdmissionQueue maintains a dependency DAG over live (pending or
// in-flight) requests: on submit, a request gains a blocked-on edge to
// every *earlier* live request it conflicts with, so edges always point
// backwards in arrival order - the graph is acyclic by construction and the
// earliest live request is always admissible (liveness). Releasing a
// finished request erases its edges; requests whose blocked-on set drains
// become admissible in arrival order.
//
// Two policies:
//   kBlind        - no conflict edges; pure max_in_flight (PR 1 behaviour).
//                   With max_in_flight = 1 this is the paper's strictly
//                   serializing message queue.
//   kConflictAware- edges exactly where rule footprints overlap.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tsu/controller/update_request.hpp"
#include "tsu/flow/match.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::controller {

enum class AdmissionPolicy : std::uint8_t {
  kBlind = 0,
  kConflictAware = 1,
};

const char* to_string(AdmissionPolicy policy) noexcept;

// One rule a request touches: a switch's table slot filtered by a match.
struct RuleRef {
  NodeId node = kInvalidNode;
  std::uint8_t table = 0;
  flow::Match match;

  // Same switch, same table, intersecting matches.
  bool conflicts_with(const RuleRef& other) const noexcept {
    return node == other.node && table == other.table &&
           match.overlaps(other.match);
  }
  bool operator==(const RuleRef&) const = default;
};

// The touched-rule set of one UpdateRequest, deduplicated.
class Footprint {
 public:
  // Collects (node, table, match) over every round's FlowMods, including
  // the cleanup deletes. A merged multi-policy request's footprint covers
  // every member policy.
  static Footprint of(const UpdateRequest& request);

  void add(RuleRef ref);
  // Pre-grows rule storage (never shrinks): the admission queue reserves
  // pooled entries to its high-water footprint size so warm-path
  // copy-assignment never reallocates.
  void reserve(std::size_t rules) { rules_.reserve(rules); }

  const std::vector<RuleRef>& rules() const noexcept { return rules_; }
  std::size_t size() const noexcept { return rules_.size(); }
  bool empty() const noexcept { return rules_.empty(); }

 private:
  std::vector<RuleRef> rules_;
};

// The dependency DAG. Ids are the caller's (the controller uses its
// UpdateIds); arrival order is submission order.
class AdmissionQueue {
 public:
  using Id = std::uint64_t;

  explicit AdmissionQueue(AdmissionPolicy policy = AdmissionPolicy::kBlind)
      : policy_(policy) {}

  // Registers a live request. Returns true when it is immediately
  // admissible (conflicts with nothing live under the policy). The
  // footprint is copied into pooled per-entry storage, so a caller
  // resubmitting a cached plan's immutable footprint allocates nothing
  // once the pool is warm.
  bool submit(Id id, const Footprint& footprint);

  // True when the request's blocked-on set is empty. The caller still
  // gates actual starts on its own capacity (max_in_flight).
  bool admissible(Id id) const noexcept;

  // Removes a finished (or started-and-finished) request from the graph.
  // Returns the ids that became admissible, in arrival order. The returned
  // reference aliases a member scratch vector: it is valid until the next
  // submit/release call (callers that recurse must copy).
  const std::vector<Id>& release(Id id);

  std::size_t live() const noexcept { return entries_.size(); }
  // Live requests currently blocked on at least one conflict.
  std::size_t blocked() const noexcept;

  // Rule-index observability, for pinning steady-state boundedness: the
  // number of switch buckets in the index and the total (request, rule)
  // pairs across them. Buckets are erased as their last rule releases
  // (release prunes empty buckets), so both must return to
  // 0 whenever no request is live - a long-running admission_test case and
  // Controller::steady_state_entries() hold the line.
  std::size_t index_switches() const noexcept { return by_node_.size(); }
  std::size_t index_rules() const noexcept {
    std::size_t rules = 0;
    for (const auto& [node, bucket] : by_node_) rules += bucket.size();
    return rules;
  }

  // Total dependency edges ever created (a measure of workload conflict).
  std::uint64_t conflict_edges() const noexcept { return conflict_edges_; }
  // Submissions that entered the queue blocked.
  std::uint64_t blocked_submissions() const noexcept {
    return blocked_submissions_;
  }

 private:
  struct Entry {
    std::uint64_t seq = 0;  // arrival order
    Footprint footprint;
    // Earlier live conflicting requests (unique; small, so a flat vector
    // beats a node-per-element set and keeps its capacity across reuse).
    std::vector<Id> blocked_on;
    std::vector<Id> blocks;  // later requests waiting on this one
  };

  using EntryMap = std::unordered_map<Id, Entry>;
  using Bucket = std::vector<std::pair<Id, RuleRef>>;
  using BucketMap = std::unordered_map<NodeId, Bucket>;

  // Node-handle pools: released map nodes are extracted (so live-size
  // contracts like index_switches()==0 still hold) and stashed for the
  // next submit, making steady-state submit/release churn allocation-free
  // once every container hits its high-water capacity.
  Entry& insert_entry(Id id);
  Bucket& insert_bucket(NodeId node);
  void recycle_entry(EntryMap::iterator it);
  void recycle_bucket(BucketMap::iterator it);

  AdmissionPolicy policy_;
  EntryMap entries_;
  // Rule index: per switch, the live requests' rules on it, so conflict
  // detection touches only co-located rules instead of every live pair.
  BucketMap by_node_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t conflict_edges_ = 0;
  std::uint64_t blocked_submissions_ = 0;
  // Largest footprint ever submitted. When it rises (a template seen for
  // the first time - the same cold moment a plan compiles), every entry's
  // footprint storage is grown to match, so the steady state never meets a
  // pooled entry whose capacity lags the workload.
  std::size_t footprint_high_water_ = 0;
  // Capacity records for the rule index and the dependency-edge lists,
  // propagated to every peer container (live and pooled) with
  // next-power-of-two headroom the moment any one of them sets a record.
  // Per-container lazy growth would let a rarely-reused pooled bucket or a
  // rare co-location spike allocate arbitrarily deep into a run; shared
  // geometric records allocate only when the workload's global high-water
  // doubles, which a stationary workload does finitely often, all during
  // warmup. See reserve_bucket_record / reserve_edge_record.
  std::size_t bucket_reserve_ = 0;
  std::size_t edge_reserve_ = 0;

  void reserve_bucket_record(std::size_t needed);
  void reserve_edge_record(std::size_t needed);

  std::vector<EntryMap::node_type> entry_pool_;
  std::vector<BucketMap::node_type> bucket_pool_;
  std::vector<Id> unblocked_scratch_;
};

}  // namespace tsu::controller
