#include "tsu/controller/plan_cache.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "tsu/proto/codec.hpp"

namespace tsu::controller {

std::shared_ptr<const CompiledPlan> compile_plan(UpdateRequest request,
                                                 std::uint64_t generation) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->generation = generation;
  plan->request = std::move(request);
  const UpdateRequest& req = plan->request;

  plan->footprint = Footprint::of(req);

  std::vector<std::byte> scratch;
  plan->flow_mod_frames.resize(req.rounds.size());
  plan->barrier_order.resize(req.rounds.size());
  for (std::size_t r = 0; r < req.rounds.size(); ++r) {
    const std::vector<RoundOp>& ops = req.rounds[r];
    std::vector<CompiledPlan::FrameRef>& row = plan->flow_mod_frames[r];
    row.reserve(ops.size());
    for (const RoundOp& op : ops) {
      // Encode with xid 0; send patches the live xid into the pooled copy
      // (proto::patch_xid), yielding bytes identical to a fresh encode.
      proto::encode_into(proto::make_flow_mod(0, op.mod), scratch);
      CompiledPlan::FrameRef ref;
      ref.offset = static_cast<std::uint32_t>(plan->frames.size());
      ref.length = static_cast<std::uint32_t>(scratch.size());
      plan->frames.insert(plan->frames.end(), scratch.begin(), scratch.end());
      row.push_back(ref);
      if (std::find(plan->touched.begin(), plan->touched.end(), op.node) ==
          plan->touched.end())
        plan->touched.push_back(op.node);
    }
    // Replay of the engine's per-round barrier fan-out: a fresh
    // unordered_set fed the same insertion sequence iterates in the same
    // order, so the compiled target list preserves the exact barrier send
    // order the uncached path would produce - a load-bearing detail for
    // bit-identical xid assignment and channel RNG consumption.
    std::unordered_set<NodeId> round_switches;
    for (const RoundOp& op : ops) round_switches.insert(op.node);
    std::vector<NodeId>& order = plan->barrier_order[r];
    order.reserve(round_switches.size());
    for (const NodeId node : round_switches) order.push_back(node);
  }
  return plan;
}

}  // namespace tsu::controller
