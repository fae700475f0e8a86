#include "tsu/controller/shard.hpp"

#include <algorithm>
#include <utility>

#include "tsu/util/log.hpp"

namespace tsu::controller {

ShardCoordinator::ShardCoordinator(sim::ShardedSim& sim,
                                   topo::SwitchPartition partition,
                                   const ControllerConfig& config)
    : sim_(sim), partition_(std::move(partition)) {
  const std::size_t count = partition_.shards();
  TSU_ASSERT_MSG(count >= 1 && count <= proto::kMaxXidShards,
                 "shard count outside [1, 256]");
  TSU_ASSERT_MSG(sim_.shard_count() == count,
                 "sharded clock and partition disagree on shard count");
  shards_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    shards_.push_back(std::make_unique<Controller>(sim_.shard(s), config));
    shards_.back()->set_shard(static_cast<std::uint8_t>(s), this);
    // Shard-local completions land on the coordinator's completed list in
    // global completion order; cross-shard merges arrive through
    // on_coordinated_done instead.
    shards_.back()->set_on_update_done(
        [this](const UpdateMetrics& metrics) {
          const UpdateMetrics& done = completed_.record(metrics);
          if (on_update_done_) on_update_done_(done);
        });
  }
}

void ShardCoordinator::attach_switch(NodeId node, Controller::SendFn send) {
  shards_[partition_.shard_of(node)]->attach_switch(node, std::move(send));
}

void ShardCoordinator::on_message(NodeId from, const proto::Message& message) {
  const std::size_t owner = partition_.shard_of(from);
  if (message.type() == proto::MsgType::kBarrierReply &&
      proto::xid_shard(message.xid) != owner) {
    TSU_LOG(kWarn) << "barrier reply from switch " << from << " tagged shard "
                   << static_cast<unsigned>(proto::xid_shard(message.xid))
                   << " but routed to shard " << owner;
  }
  shards_[owner]->on_message(from, message);
}

void ShardCoordinator::submit(UpdateRequest request) {
  if (shards_.size() == 1) {
    shards_[0]->submit(std::move(request));
    return;
  }

  std::vector<std::uint8_t> parts;
  {
    std::vector<bool> touched(shards_.size(), false);
    for (const std::vector<RoundOp>& round : request.rounds)
      for (const RoundOp& op : round)
        touched[partition_.shard_of(op.node)] = true;
    for (std::size_t s = 0; s < touched.size(); ++s)
      if (touched[s]) parts.push_back(static_cast<std::uint8_t>(s));
  }
  if (parts.size() <= 1) {
    // Shard-local (or degenerate empty): the owner runs it exactly like
    // the single controller would.
    shards_[parts.empty() ? 0 : parts.front()]->submit(std::move(request));
    return;
  }

  // Cross-shard: split into per-shard sub-requests with aligned round
  // indices - a shard with no ops in round k keeps an empty round k, so
  // the k-th round of every slice confirms the k-th global round.
  const std::uint64_t token = next_token_++;
  CrossUpdate cross;
  cross.shards = parts;
  cross.total_rounds = request.rounds.size();
  ++sharding_.cross_shard_updates;

  std::vector<UpdateRequest> subs(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    subs[i].name = request.name;
    subs[i].flow = request.flow;
    subs[i].interval = request.interval;
    subs[i].enqueued = request.enqueued;
    subs[i].rounds.resize(request.rounds.size());
  }
  for (std::size_t r = 0; r < request.rounds.size(); ++r) {
    for (RoundOp& op : request.rounds[r]) {
      const std::uint8_t owner =
          static_cast<std::uint8_t>(partition_.shard_of(op.node));
      const std::size_t slot =
          static_cast<std::size_t>(std::lower_bound(parts.begin(), parts.end(),
                                                    owner) -
                                   parts.begin());
      subs[slot].rounds[r].push_back(std::move(op));
    }
  }

  cross_.emplace(token, std::move(cross));
  for (std::size_t i = 0; i < parts.size(); ++i)
    shards_[parts[i]]->submit_coordinated(std::move(subs[i]), token);
  pending_cross_.push_back(token);
  try_start_cross();
}

void ShardCoordinator::submit_plan(std::shared_ptr<const CompiledPlan> plan,
                                   std::optional<sim::SimTime> enqueued) {
  if (shards_.size() == 1) {
    shards_[0]->submit_plan(std::move(plan), enqueued);
    return;
  }
  // Route by the plan's pre-deduplicated touched set - no request
  // materialization, no per-round scan. Same partition function as
  // submit()'s scan, so the routing decision is identical.
  int owner = -1;
  bool cross = false;
  for (const NodeId node : plan->touched) {
    const int shard = static_cast<int>(partition_.shard_of(node));
    if (owner < 0) {
      owner = shard;
    } else if (shard != owner) {
      cross = true;
      break;
    }
  }
  if (!cross) {
    shards_[owner < 0 ? 0 : owner]->submit_plan(std::move(plan), enqueued);
    return;
  }
  // Cross-shard: the coordinated protocol needs per-shard sub-requests, so
  // materialize the canonical request and take the ordinary split path.
  // Identical to the uncached submission by construction.
  UpdateRequest request = plan->request;
  request.enqueued = enqueued;
  submit(std::move(request));
}

void ShardCoordinator::try_start_cross() {
  // Starting a sub-request can synchronously confirm empty rounds, finish
  // slices and re-enter through on_progress; the guard collapses those
  // nested calls into the outer scan, which restarts after every start.
  if (starting_) return;
  starting_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = pending_cross_.begin(); it != pending_cross_.end(); ++it) {
      const std::uint64_t token = *it;
      // Copy: the start loop below can mutate cross_ re-entrantly.
      const std::vector<std::uint8_t> parts = cross_.at(token).shards;
      bool ready = true;
      for (const std::uint8_t s : parts) {
        const Controller& engine = *shards_[s];
        if (!engine.coordinated_admissible(token) || !engine.has_capacity()) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      pending_cross_.erase(it);
      // Atomic acquisition: every participating shard starts in this same
      // instant, so no cross-shard update ever holds a partial slot set.
      for (const std::uint8_t s : parts)
        shards_[s]->start_coordinated(token);
      progress = true;
      break;
    }
  }
  starting_ = false;
}

void ShardCoordinator::on_round_done(std::uint8_t, std::uint64_t token,
                                     std::size_t round) {
  CrossUpdate& cross = cross_.at(token);
  TSU_ASSERT_MSG(round == cross.confirm_round,
                 "cross-shard round confirmations out of lockstep");
  if (cross.confirms == 0) cross.first_confirm = sim_.now();
  ++cross.confirms;
  if (cross.confirms < cross.shards.size()) return;

  // Round `round` is installed on every shard: account the sync spread,
  // then release the next round's barriers everywhere. The release loop
  // can recurse (empty rounds confirm synchronously) and even retire the
  // whole update, so nothing touches `cross` after the copies below.
  sharding_.sync_overhead += sim_.now() - cross.first_confirm;
  ++sharding_.rounds_synced;
  const std::size_t next = round + 1;
  if (next >= cross.total_rounds) return;  // final round: shards self-finish
  cross.confirm_round = next;
  cross.confirms = 0;
  const std::vector<std::uint8_t> parts = cross.shards;
  for (const std::uint8_t s : parts)
    shards_[s]->release_round(token);
}

void ShardCoordinator::on_coordinated_done(std::uint8_t, std::uint64_t token,
                                           UpdateMetrics metrics) {
  CrossUpdate& cross = cross_.at(token);
  cross.slices.push_back(std::move(metrics));
  if (cross.slices.size() < cross.shards.size()) return;
  UpdateMetrics merged = merge_slices(cross.slices);
  cross_.erase(token);
  const UpdateMetrics& done = completed_.record(std::move(merged));
  if (on_update_done_) on_update_done_(done);
}

void ShardCoordinator::on_progress(std::uint8_t) { try_start_cross(); }

UpdateMetrics ShardCoordinator::merge_slices(
    std::vector<UpdateMetrics>& slices) {
  // One request's view across its shards: earliest start, latest finish,
  // summed message counts; per-round metrics merge index-by-index (slices
  // keep aligned round indices by construction).
  UpdateMetrics merged = std::move(slices.front());
  for (std::size_t i = 1; i < slices.size(); ++i) {
    const UpdateMetrics& slice = slices[i];
    merged.enqueued = std::min(merged.enqueued, slice.enqueued);
    merged.submitted = std::min(merged.submitted, slice.submitted);
    merged.started = std::min(merged.started, slice.started);
    merged.finished = std::max(merged.finished, slice.finished);
    merged.flow_mods_sent += slice.flow_mods_sent;
    merged.barriers_sent += slice.barriers_sent;
    if (merged.rounds.size() < slice.rounds.size())
      merged.rounds.resize(slice.rounds.size());
    for (std::size_t r = 0; r < slice.rounds.size(); ++r) {
      RoundMetrics& into = merged.rounds[r];
      const RoundMetrics& from = slice.rounds[r];
      into.started = std::min(into.started, from.started);
      into.finished = std::max(into.finished, from.finished);
      into.flow_mods += from.flow_mods;
      into.barriers += from.barriers;
    }
  }
  return merged;
}

bool ShardCoordinator::idle() const noexcept {
  for (const auto& shard : shards_)
    if (!shard->idle()) return false;
  return pending_cross_.empty() && cross_.empty();
}

std::size_t ShardCoordinator::queued() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queued();
  return total;
}

std::size_t ShardCoordinator::in_flight() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->in_flight();
  return total;
}

ControllerStats ShardCoordinator::stats() const {
  ControllerStats total;
  for (const auto& shard : shards_) total.merge(shard->stats());
  total.sharding = sharding_;
  total.sharding.shards = shards_.size();
  total.sharding.parallel_epochs = sim_.parallel_epochs();
  total.sharding.horizon_stalls = sim_.horizon_stalls();
  total.sharding.events_per_shard = sim_.events_per_shard();
  return total;
}

}  // namespace tsu::controller
