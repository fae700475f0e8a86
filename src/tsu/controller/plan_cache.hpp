// Compile-once submission path: memoized update plans with pre-encoded,
// xid-patchable frames.
//
// The open-loop service mode submits the same few templates over and over
// (each template alternating forward/reverse), yet every submission used to
// re-lower the schedule to rounds, recompute the admission footprint, and
// re-encode every FlowMod and barrier frame from scratch.
// All of that work is a pure function of the template - only the xids and
// the arrival timestamp differ between submissions.
//
// A CompiledPlan captures the invariant part once: the canonical
// UpdateRequest (rounds and all), its admission Footprint, and every
// FlowMod frame pre-encoded with xid 0 plus the per-round barrier fan-out
// order. Submitting a plan (Controller::submit_plan) then costs only xid
// assignment and per-switch routing: the cached bytes are copied - into
// the channel's pooled frame buffer, or into the switch's outbox when
// batching - and the live xid is patched in place (proto::patch_xid - the
// xid analogue of the Batch encoder's length patch), producing bytes
// identical to a fresh encode.
// This holds in every mode: with batching, the outbox writes its Batch
// frame around the patched frames, and with fault tolerance on, the
// shadow tables are fed from the plan's rounds.
//
// Transparency is the contract: a plan-backed submission is bit-identical
// to submitting its request - same digests, same wire bytes, same
// makespan, same oracle verdicts. Generation tagging keeps it so across
// faults: every plan records the controller's resync generation at compile
// time. A fault-driven resync rewrites shadow state and bumps the
// generation, so PlanCache::lookup discards any plan compiled before it
// (counted as an invalidation) rather than serving stale frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "tsu/controller/admission.hpp"
#include "tsu/controller/update_request.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::controller {

// Everything about one update template that does not depend on the
// submission instant. Immutable after compile_plan (shared across
// submissions through shared_ptr<const CompiledPlan>).
struct CompiledPlan {
  // Offset/length of one pre-encoded frame inside `frames`.
  struct FrameRef {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  // The canonical request: rounds, name, flow, interval. The
  // per-submission arrival (enqueued) is left unset and carried by the
  // submission itself.
  UpdateRequest request;
  // Admission footprint, identical to Footprint::of(request).
  Footprint footprint;
  // Unique switches the request touches, in first-appearance order; the
  // sharded coordinator routes plan submissions by this set without
  // materializing a request.
  std::vector<NodeId> touched;
  // Flat pool of pre-encoded FlowMod frames (xid 0), indexed per
  // round/op by `flow_mod_frames`. (Barriers carry no payload; the
  // controller sends one shared barrier frame.)
  std::vector<std::byte> frames;
  std::vector<std::vector<FrameRef>> flow_mod_frames;
  // Per-round barrier fan-out targets, captured at compile time by
  // replaying the engine's per-round switch-set construction - same
  // switches, same iteration order as the uncached path.
  std::vector<std::vector<NodeId>> barrier_order;
  // Controller resync generation at compile time; lookup() rejects plans
  // from older generations.
  std::uint64_t generation = 0;

  std::span<const std::byte> flow_mod_frame(std::size_t round,
                                            std::size_t op) const noexcept {
    const FrameRef& ref = flow_mod_frames[round][op];
    return std::span<const std::byte>(frames).subspan(ref.offset, ref.length);
  }
};

// Compiles `request` into an immutable plan: footprint, touched set, and
// every wire frame encoded once with xid 0.
std::shared_ptr<const CompiledPlan> compile_plan(UpdateRequest request,
                                                 std::uint64_t generation);

// The memo: template key -> compiled plan, with hit/compile/invalidation
// counters surfaced through ServiceStats. Keys are the caller's (the
// service executor uses 2 * template + direction), so the cache itself
// never inspects requests.
class PlanCache {
 public:
  // Returns the cached plan for `key` if it exists and was compiled at
  // `generation`; a generation mismatch (fault-driven resync since
  // compile) discards the stale plan and counts an invalidation. A miss
  // returns nullptr - the caller compiles and store()s.
  std::shared_ptr<const CompiledPlan> lookup(std::uint64_t key,
                                             std::uint64_t generation) {
    const auto it = plans_.find(key);
    if (it == plans_.end()) return nullptr;
    if (it->second->generation != generation) {
      ++invalidations_;
      plans_.erase(it);
      return nullptr;
    }
    ++hits_;
    return it->second;
  }

  void store(std::uint64_t key, std::shared_ptr<const CompiledPlan> plan) {
    ++compiles_;
    plans_[key] = std::move(plan);
  }

  std::uint64_t hits() const noexcept { return hits_; }
  // Misses that compiled a fresh plan (every invalidation is followed by
  // one, so misses == compiles).
  std::uint64_t compiles() const noexcept { return compiles_; }
  std::uint64_t invalidations() const noexcept { return invalidations_; }
  std::size_t size() const noexcept { return plans_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::shared_ptr<const CompiledPlan>>
      plans_;
  std::uint64_t hits_ = 0;
  std::uint64_t compiles_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace tsu::controller
