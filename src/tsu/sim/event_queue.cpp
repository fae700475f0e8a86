#include "tsu/sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "tsu/util/assert.hpp"

namespace tsu::sim {

namespace {

// The heap vectors are max-heaps under Entry's inverted comparison, so
// front() is the earliest event. These helpers keep the call sites honest
// (templates: Entry is private to EventQueue).
template <typename Entry>
inline void heap_push(std::vector<Entry>& heap, Entry entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end());
}

template <typename Entry>
inline void heap_pop(std::vector<Entry>& heap) {
  std::pop_heap(heap.begin(), heap.end());
  heap.pop_back();
}

// First capacity of the arena, the heaps and each lane ring (a power of
// two, for the ring mask); see STORAGE in event_queue.hpp.
constexpr std::size_t kInitialCapacity = 64;

}  // namespace

EventQueue::EventQueue() {
  slots_.reserve(kInitialCapacity);
  heap_.reserve(kInitialCapacity);
  shared_heap_.reserve(kInitialCapacity);
}

void EventQueue::Lane::push_back(const Entry& entry) {
  if (count == ring.size()) {
    // New high-water mark: unroll into a ring twice the size. Steady state
    // never gets here.
    std::vector<Entry> grown(ring.empty() ? kInitialCapacity
                                          : 2 * ring.size());
    for (std::size_t i = 0; i < count; ++i) grown[i] = at(i);
    ring.swap(grown);
    head = 0;
  }
  ring[(head + count) & mask()] = entry;
  ++count;
}

std::uint32_t EventQueue::acquire(EventFn fn, EventScope scope) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.scope = scope;
  s.pending = true;
  return slot;
}

EventId EventQueue::file(const Entry& entry, int lane, EventScope scope) {
  if (lane == kFromHeap) {
    heap_push(heap_, entry);
  } else {
    lanes_[static_cast<std::size_t>(lane)].push_back(entry);
    ++lane_entries_;
  }
  if (scope == EventScope::kShared) heap_push(shared_heap_, entry);
  // One comparison keeps a known minimum current: an entry that beats it
  // is necessarily the new head of its own container, since a lane entry
  // never sorts before its lane's tail.
  if (min_ != kUnknown && fires_before(entry, head(min_))) min_ = lane;
  ++live_;
  return make_id(entry.slot, entry.gen);
}

EventId EventQueue::push(SimTime at, EventFn fn, EventScope scope, Band band,
                         SimTime posted_at, std::uint64_t remote_seq) {
  const std::uint32_t slot = acquire(std::move(fn), scope);
  // Remote entries tie-break on the post key so the order is independent
  // of drain batching; native entries tie-break on push order.
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t major = band == Band::kRemote ? posted_at : seq;
  const std::uint64_t minor = band == Band::kRemote ? remote_seq : 0;
  return file(Entry{at, major, minor, slot, slots_[slot].gen, band}, kFromHeap,
              scope);
}

EventId EventQueue::push_after(Duration delay, SimTime at, EventFn fn,
                               EventScope scope) {
  const std::uint32_t slot = acquire(std::move(fn), scope);
  const Entry entry{at, next_seq_++, 0, slot, slots_[slot].gen, Band::kNative};
  int lane = lane_for(delay);
  // The lane stays sorted only if the entry does not fire before its tail;
  // a clock that stepped backwards (a shard rejoining a lagging group
  // clock) sends the push to the heap instead.
  if (lane != kFromHeap) {
    const Lane& l = lanes_[static_cast<std::size_t>(lane)];
    if (!l.empty() && fires_before(entry, l.back())) lane = kFromHeap;
  }
  return file(entry, lane, scope);
}

int EventQueue::lane_for(Duration delay) {
  for (std::size_t i = 0; i < lane_count_; ++i)
    if (lanes_[i].delay == delay) return static_cast<int>(i);
  const std::size_t window = std::min(recent_seen_, kRecentDelays);
  const bool repeated =
      std::find(recent_.begin(), recent_.begin() + window, delay) !=
      recent_.begin() + window;
  if (!repeated) {
    recent_[recent_seen_++ % kRecentDelays] = delay;
    return kFromHeap;
  }
  // Second sighting: open a fresh lane, or retarget one that has drained
  // (an empty lane carries no order, and keeps its ring's capacity).
  if (lane_count_ < kMaxLanes) {
    lanes_[lane_count_].delay = delay;
    return static_cast<int>(lane_count_++);
  }
  for (std::size_t i = 0; i < kMaxLanes; ++i) {
    if (lanes_[i].empty()) {
      lanes_[i].delay = delay;
      return static_cast<int>(i);
    }
  }
  return kFromHeap;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.pending) return false;
  // Eager release: retire() destroys the closure NOW, so captured frames
  // and request state never outlive the cancel. Only the heap/lane entries
  // linger (invalidated by the generation bump) until skimmed.
  retire(slot);
  --live_;
  min_ = kUnknown;
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  const std::size_t held = heap_size();
  if (held < kCompactMinimum) return;
  if (held <= kCompactSlack * live_) return;
  // In place over the retained capacity: erase the dead entries, restore
  // the heap property, squeeze each lane in order. No allocation - cancel
  // churn is part of the allocation-free steady state
  // (tests/hotpath_alloc_test.cpp).
  const auto dead = [this](const Entry& entry) { return !entry_live(entry); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end());
  shared_heap_.erase(
      std::remove_if(shared_heap_.begin(), shared_heap_.end(), dead),
      shared_heap_.end());
  std::make_heap(shared_heap_.begin(), shared_heap_.end());
  lane_entries_ = 0;
  for (std::size_t i = 0; i < lane_count_; ++i) {
    Lane& lane = lanes_[i];
    std::size_t kept = 0;
    for (std::size_t k = 0; k < lane.count; ++k)
      if (entry_live(lane.at(k))) lane.at(kept++) = lane.at(k);
    lane.count = kept;
    lane_entries_ += kept;
  }
}

bool EventQueue::empty() const noexcept { return live_ == 0; }

int EventQueue::min_source() {
  if (min_ != kUnknown && entry_live(head(min_))) return min_;
  for (;;) {
    int best = kUnknown;
    if (!heap_.empty()) best = kFromHeap;
    for (std::size_t i = 0; i < lane_count_; ++i) {
      if (lanes_[i].empty()) continue;
      if (best == kUnknown || fires_before(lanes_[i].front(), head(best)))
        best = static_cast<int>(i);
    }
    TSU_ASSERT_MSG(best != kUnknown, "live_ count out of sync with entries");
    if (entry_live(head(best))) {
      min_ = best;
      return best;
    }
    // A cancelled head: skim it and look again.
    if (best == kFromHeap) {
      heap_pop(heap_);
    } else {
      lanes_[static_cast<std::size_t>(best)].pop_front();
      --lane_entries_;
    }
  }
}

SimTime EventQueue::next_time() const {
  TSU_ASSERT_MSG(!empty(), "next_time on empty queue");
  auto* self = const_cast<EventQueue*>(this);
  return head(self->min_source()).time;
}

SimTime EventQueue::next_shared_time() const {
  auto* self = const_cast<EventQueue*>(this);
  while (!self->shared_heap_.empty() && !entry_live(self->shared_heap_.front()))
    heap_pop(self->shared_heap_);
  return shared_heap_.empty() ? std::numeric_limits<SimTime>::max()
                              : shared_heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  TSU_ASSERT_MSG(!empty(), "pop on empty queue");
  const int source = min_source();
  const Entry top = head(source);
  if (source == kFromHeap) {
    heap_pop(heap_);
  } else {
    lanes_[static_cast<std::size_t>(source)].pop_front();
    --lane_entries_;
  }
  min_ = kUnknown;
  Slot& s = slots_[top.slot];
  Fired fired{top.time, std::move(s.fn), s.scope};
  retire(top.slot);
  --live_;
  if (fired.scope == EventScope::kShared) {
    // A fired kShared event is the earliest pending event, hence the
    // minimum of the subset shared_heap_ too: skim it (and any cancelled
    // entries above it) off now, so sequential runs - which never call
    // next_shared_time() - cannot grow the index without bound.
    while (!shared_heap_.empty() && !entry_live(shared_heap_.front()))
      heap_pop(shared_heap_);
  }
  return fired;
}

}  // namespace tsu::sim
