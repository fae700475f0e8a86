#include "tsu/sim/sharded.hpp"

#include <algorithm>
#include <utility>

namespace tsu::sim {

namespace {

// The remote-band minor key: (poster, per-poster post sequence) packed so
// lexicographic uint64 comparison equals the pair comparison. 16 bits of
// poster is far beyond any shard count; 48 bits of sequence outlast any
// run.
inline std::uint64_t remote_key(std::size_t poster,
                                std::uint64_t seq) noexcept {
  TSU_ASSERT_MSG(poster < (1ull << 16) && seq < (1ull << 48),
                 "remote key fields exceed their packed widths");
  return (static_cast<std::uint64_t>(poster) << 48) | seq;
}

}  // namespace

void ShardedSim::post(std::size_t target, std::size_t poster, SimTime at,
                      EventFn fn, EventScope scope) {
  TSU_ASSERT_MSG(target < shards_.size() && poster < shards_.size(),
                 "mailbox post outside the shard group");
  const SimTime posted_at = shards_[poster]->now();
  const std::uint64_t seq = post_seq_[poster]++;  // poster-owned slot
  if (!buffering_ || target == poster) {
    // Sequential merger / sync point - or a mid-wave SELF-post, where the
    // poster's own worker is the only thread touching this queue: the
    // hand-off schedules straight through. The remote-band key makes the
    // resulting order a function of the post itself, so the buffered path
    // below lands identically.
    shards_[target]->push_remote(at, std::move(fn), scope, posted_at,
                                 remote_key(poster, seq));
    return;
  }
  // Mid-epoch only the worker stepping `poster` appends to this outbox,
  // and the merging thread drains it after the pool join.
  outboxes_[poster].push_back(
      Post{at, posted_at, target, seq, scope, std::move(fn)});
}

void ShardedSim::drain_outboxes() {
  // The (at, post time, poster, seq) key carried on every remote entry is
  // what fixes the order, so the push order here does not matter.
  for (std::size_t poster = 0; poster < outboxes_.size(); ++poster) {
    for (Post& post : outboxes_[poster])
      shards_[post.target]->push_remote(post.at, std::move(post.fn),
                                        post.scope, post.posted_at,
                                        remote_key(poster, post.seq));
    outboxes_[poster].clear();
  }
}

bool ShardedSim::step_earliest(SimTime until) {
  // Earliest next event across shards; ties go to the lowest shard index
  // (strict <), which is what makes merged runs deterministic.
  std::size_t best = shards_.size();
  SimTime best_time = std::numeric_limits<SimTime>::max();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const SimTime t = shards_[i]->next_event_time();
    if (t < best_time) {
      best_time = t;
      best = i;
    }
  }
  if (best == shards_.size() || best_time > until) return false;
  shards_[best]->step();
  ++events_[best];
  return true;
}

std::size_t ShardedSim::run(SimTime until) {
  std::size_t processed = 0;
  while (step_earliest(until)) ++processed;
  if (now_ < until && until != std::numeric_limits<SimTime>::max())
    now_ = until;
  return processed;
}

std::size_t ShardedSim::run_parallel(ThreadPool& pool, Duration lookahead,
                                     SimTime until) {
  const SimTime kMax = std::numeric_limits<SimTime>::max();
  const std::size_t n_shards = shards_.size();
  std::size_t processed = 0;
  epoch_counts_.assign(n_shards, 0);
  wave_bounds_.assign(n_shards, 0);
  std::vector<std::size_t>& counts = epoch_counts_;
  // The pool task is built ONCE: a single-reference capture keeps it inside
  // std::function's small-object buffer, and mutating `ctx` per wave
  // avoids re-wrapping the lambda (one heap allocation per wave
  // otherwise - measurable on fine-grained workloads).
  struct EpochCtx {
    ShardedSim* self;
    std::size_t* counts;
    const SimTime* bounds;
  } ctx{this, counts.data(), wave_bounds_.data()};
  const std::function<void(std::size_t)> epoch_task = [&ctx](std::size_t i) {
    ctx.counts[i] = ctx.self->shards_[i]->run_epoch(ctx.bounds[i]);
  };
  while (true) {
    // One pass: the global kShared minimum plus the two smallest
    // next-event times (with the argmin), so each shard's sibling minimum
    // min_{j != i} N_j is min1 (or min2 when i IS the argmin).
    SimTime shared_min = kMax;
    SimTime min1 = kMax, min2 = kMax;
    std::size_t argmin = n_shards;
    for (std::size_t i = 0; i < n_shards; ++i) {
      const SimTime t = shards_[i]->next_event_time();
      if (t < min1) {
        min2 = min1;
        min1 = t;
        argmin = i;
      } else {
        min2 = std::min(min2, t);
      }
      shared_min = std::min(shared_min, shards_[i]->next_shared_time());
    }
    if (min1 == kMax || min1 > until) break;

    // Per-shard safe bounds (see the file comment): shard i may run below
    // S_i = min(shared_min, min_{j != i} N_j + lookahead,
    //           N_i + 2 * lookahead). The sibling term covers everything a
    // SIBLING's pending work can send here; the self term covers a bounce
    // THROUGH a sibling (i's own event posts to j, whose handler posts
    // back) - that cycle crosses two mailbox hops of >= lookahead each, so
    // nothing i executes below N_i + 2*lookahead can be undercut by its
    // own echo even when every sibling is idle (N_j = max). Same-shard
    // creations are covered by run_epoch's own-kShared guard plus direct
    // self-post delivery.
    std::size_t eligible = 0;
    std::size_t busy = n_shards;  // the eligible shard, when exactly one
    for (std::size_t i = 0; i < n_shards; ++i) {
      const SimTime others = i == argmin ? min2 : min1;
      SimTime bound = shared_min;
      if (others != kMax) {
        const SimTime creation =
            lookahead > kMax - others ? kMax : others + lookahead;
        bound = std::min(bound, creation);
      }
      const SimTime self = shards_[i]->next_event_time();
      if (self != kMax) {
        const Duration round_trip =
            lookahead > kMax - lookahead ? kMax : 2 * lookahead;
        const SimTime bounce =
            round_trip > kMax - self ? kMax : self + round_trip;
        bound = std::min(bound, bounce);
      }
      if (until != kMax && bound > until)
        bound = until == kMax - 1 ? kMax : until + 1;  // events AT until fire
      wave_bounds_[i] = bound;
      if (shards_[i]->next_event_time() < bound) {
        ++eligible;
        busy = i;
      }
    }

    if (eligible == 0) {
      // Collapsed wave: the earliest event everywhere is (or ties with) a
      // kShared one. One sequential merge step is always safe; kLocal
      // posts made by it schedule straight through (buffering_ is false
      // here).
      const bool stepped = step_earliest(until);
      TSU_ASSERT(stepped);
      ++processed;
      ++horizon_stalls_;
      continue;
    }

    if (eligible == 1) {
      // One busy shard: run its epoch inline, skip the pool round-trip.
      buffering_ = true;
      const std::size_t count = shards_[busy]->run_epoch(wave_bounds_[busy]);
      buffering_ = false;
      events_[busy] += count;
      processed += count;
      now_ = std::max(now_, shards_[busy]->epoch_now());
    } else {
      buffering_ = true;
      pool.parallel(n_shards, epoch_task);
      buffering_ = false;
      for (std::size_t i = 0; i < n_shards; ++i) {
        events_[i] += counts[i];
        processed += counts[i];
        if (counts[i] > 0) now_ = std::max(now_, shards_[i]->epoch_now());
      }
    }
    ++parallel_epochs_;
    drain_outboxes();
  }
  if (now_ < until && until != kMax) now_ = until;
  return processed;
}

}  // namespace tsu::sim
