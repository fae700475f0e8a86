// Event queue for the discrete-event simulator: events fire in (time, band,
// seq) order, where seq is a monotonically increasing tie-breaker, so
// simultaneous events fire in scheduling order and runs are fully
// deterministic.
//
// ORDER STRUCTURE. Pending entries sit in one of two kinds of sorted
// container, and the next event is the minimum of their heads under the
// single (time, band, seq) comparator:
//
//   lanes  Up to kMaxLanes FIFO rings keyed by RELATIVE delay. Almost every
//          event the engine schedules uses one of a handful of constant
//          delays (link latency, probe interarrival, switch install time,
//          zero-delay flushes), and events pushed with the same constant
//          delay from a non-decreasing clock are, in push order, already
//          sorted by (time, band, seq): appending to the ring keeps it
//          sorted in O(1), and its head is its minimum. A delay earns a
//          lane on its second sighting in a small recent-delay window, so
//          uniformly jittered delays practically never take one. A push
//          joins its lane only if it does not sort before the lane's tail
//          under the full comparator - the clock is NOT assumed monotone
//          per queue (after a parallel epoch a shard's own clock may lead
//          the group clock it is stepped on next); such a push takes the
//          heap instead.
//
//   heap   A binary min-heap for everything else: jittered delays,
//          schedule_at's absolute times, remote-band mailbox deliveries,
//          and lane-order exceptions.
//
// Because each container is sorted under the same total order, picking the
// least head reproduces exactly the order a single heap over all entries
// would fire - the lanes change the cost, never the sequence. The source
// holding the minimum is cached: next_time() followed by pop() scans the
// heads once, a push updates the cache with one comparison, and pop/cancel
// invalidate it. A faster heap alone (a compact-key 4-ary heap was tried)
// does not pay on the 1000-flow closed loop: the sift is not the whole cost,
// and the lanes remove it outright for ~90 % of the events there.
//
// STORAGE. Events live in a pooled slot arena: a vector of fixed slots
// recycled through a free list threaded through the retired slots, each
// holding the closure in a small-buffer-optimized InlineFn. The arena, the
// heaps and every lane ring start at 64 entries instead of doubling up from
// one, which saves a fresh queue more allocations than its lane rings add.
// Steady state performs ZERO heap
// allocations per event - push reuses a retired slot (and the heap vectors'
// and lane rings' high-water capacity), pop returns it. An EventId encodes
// (generation, slot); a bumped generation invalidates every outstanding
// reference to a retired incarnation, which is what makes lazily cancelled
// heap and lane entries detectable in O(1) without a lookup table. The
// allocation-regression test (tests/hotpath_alloc_test.cpp) pins the
// zero-allocation property.
//
// Two orthogonal labels support the parallel sharded engine (sharded.hpp):
//
//   scope  kLocal events are guaranteed by their scheduler to touch only
//          state owned by this queue's shard, so a parallel epoch may run
//          them without cross-shard synchronization. kShared (the safe
//          default) events may read or mutate foreign-shard state and are
//          only ever executed at horizon sync points. next_shared_time()
//          is the earliest pending kShared event - one input of the safe-
//          horizon computation.
//
//   band   kNative events were scheduled by this shard's own execution;
//          kRemote events arrived through a cross-shard mailbox. At equal
//          timestamps every remote event sorts after every native one, and
//          remote events among themselves sort by the caller-supplied
//          (post time, poster, per-poster sequence) key - NOT by insertion
//          order. The full order of a hand-off against same-instant work
//          is therefore a property of the timestamps alone, not of WHEN
//          the mailbox was drained or in how many batches, which is what
//          keeps the sequential merger, the epoch stepper and the per-wave
//          drains of sharded.hpp bit-identical.
//
// Cancellation is lazy for the HEAP/LANE ENTRY only - the slot's closure
// (and everything it owns: frames, packets, request state) is destroyed
// EAGERLY in cancel(), and the slot returns to the free list immediately.
// A dead entry is skimmed off when it reaches the head of its container,
// and the queue compacts itself IN PLACE (dead entries erased, heaps
// re-heapified, lanes squeezed in order - no allocation) whenever cancelled
// entries outnumber live ones past a threshold, so heavy cancel churn
// (retransmit timers that almost always get cancelled) cannot grow the
// queue without bound.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tsu/sim/inline_fn.hpp"
#include "tsu/sim/time.hpp"

namespace tsu::sim {

using EventFn = InlineFn;
using EventId = std::uint64_t;

// See the file comment. kShared is the default: only call sites that can
// prove shard-locality opt into kLocal.
enum class EventScope : std::uint8_t { kShared = 0, kLocal = 1 };

class EventQueue {
 public:
  // Which tie-break band an event occupies at its timestamp.
  enum class Band : std::uint8_t { kNative = 0, kRemote = 1 };

  EventQueue();

  // For Band::kRemote, `posted_at` and `remote_seq` form the deterministic
  // tie-break among same-instant remote events (see the file comment);
  // native pushes ignore them and tie-break on scheduling order. Always
  // heap-ordered.
  EventId push(SimTime at, EventFn fn, EventScope scope = EventScope::kShared,
               Band band = Band::kNative, SimTime posted_at = 0,
               std::uint64_t remote_seq = 0);
  // A native push `delay` after the caller's clock (`at` = clock + delay).
  // The delay only picks the FIFO lane; the fired order is that of push().
  EventId push_after(Duration delay, SimTime at, EventFn fn,
                     EventScope scope = EventScope::kShared);

  // Cancels a pending event. The closure is released eagerly (its captured
  // resources die NOW, not when the dead entry surfaces); only the heap or
  // lane entry stays behind, skimmed lazily. Returns false if the event
  // already fired or was cancelled.
  bool cancel(EventId id);

  bool empty() const noexcept;
  std::size_t size() const noexcept { return live_; }
  // Heap and lane entries currently held, including lazily cancelled ones.
  // The compaction invariant keeps this within kCompactSlack * size() + a
  // small constant; exposed so tests can pin the bound.
  std::size_t heap_size() const noexcept {
    return heap_.size() + lane_entries_;
  }
  SimTime next_time() const;
  // Earliest pending kShared event; SimTime max when none is pending.
  SimTime next_shared_time() const;

  // Pops and returns the next live event; callers must check empty() first.
  struct Fired {
    SimTime time;
    EventFn fn;
    EventScope scope;
  };
  Fired pop();

  // Compaction tuning (exposed for the regression test): compact once the
  // heap and lanes hold more than kCompactSlack x the live count and at
  // least kCompactMinimum entries.
  static constexpr std::size_t kCompactSlack = 2;
  static constexpr std::size_t kCompactMinimum = 64;

 private:
  // Lane admission: at most kMaxLanes constant delays own a lane, and a
  // delay is admitted when it repeats within the last kRecentDelays
  // non-lane delays.
  static constexpr std::size_t kMaxLanes = 8;
  static constexpr std::size_t kRecentDelays = 16;

  struct Entry {
    SimTime time;
    // Native: the push-order sequence (unique, so `minor` never decides).
    // Remote: the poster's clock at post time, then (poster, post seq)
    // packed into `minor` - a pure function of the post itself, identical
    // whatever sync point drained it.
    std::uint64_t major;
    std::uint64_t minor;
    std::uint32_t slot;
    std::uint32_t gen;
    Band band;
    // Inverted for the std:: max-heap algorithms: a < b iff b fires first.
    // Equal times break remote-after-native, then scheduling order
    // (native) / post order (remote).
    bool operator<(const Entry& other) const {
      if (time != other.time) return time > other.time;
      if (band != other.band) return band > other.band;
      if (major != other.major) return major > other.major;
      return minor > other.minor;
    }
  };

  static bool fires_before(const Entry& a, const Entry& b) { return b < a; }

  // One constant-delay FIFO: a ring over a power-of-two vector whose
  // capacity doubles only at a new high-water mark.
  struct Lane {
    Duration delay = 0;
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    bool empty() const noexcept { return count == 0; }
    std::size_t mask() const noexcept { return ring.size() - 1; }
    Entry& at(std::size_t i) noexcept { return ring[(head + i) & mask()]; }
    const Entry& front() const noexcept { return ring[head]; }
    const Entry& back() const noexcept {
      return ring[(head + count - 1) & mask()];
    }
    void pop_front() noexcept {
      head = (head + 1) & mask();
      --count;
    }
    void push_back(const Entry& entry);
  };

  // The cached minimum's source: a lane index, the heap, or unknown.
  static constexpr int kFromHeap = -1;
  static constexpr int kUnknown = -2;

  // One arena slot. `gen` advances when the incarnation retires (fire or
  // cancel), so an Entry is live iff its gen still matches. A retired slot
  // links to the next free one, so the free list needs no storage of its
  // own and retire() can never allocate.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = 0;
    EventScope scope = EventScope::kShared;
    bool pending = false;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  bool entry_live(const Entry& entry) const noexcept {
    return slots_[entry.slot].gen == entry.gen;
  }

  // Takes a free arena slot for a new pending event.
  std::uint32_t acquire(EventFn fn, EventScope scope);
  // Files a fully built entry: into lane `lane` (a kFromHeap lane means the
  // heap), plus the kShared index, and folds it into the cached minimum.
  EventId file(const Entry& entry, int lane, EventScope scope);
  // The lane for a native push with this delay, or kFromHeap (see the
  // admission rule in the file comment).
  int lane_for(Duration delay);

  const Entry& head(int source) const noexcept {
    return source == kFromHeap ? heap_.front()
                               : lanes_[static_cast<std::size_t>(source)]
                                     .front();
  }
  // The source whose head is the earliest live entry (skimming cancelled
  // heads on the way); the queue must be non-empty.
  int min_source();

  // Returns the slot to the free list and invalidates outstanding ids and
  // entries for this incarnation.
  void retire(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.fn.reset();
    s.pending = false;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  // Compacts the heaps and lanes in place (dead entries erased, heaps
  // re-heapified, lane order kept) when the cancelled fraction crosses the
  // threshold. O(entries), amortized free (a rebuild only happens after at
  // least as many cancels as live entries), and allocation-free: every
  // container keeps its capacity.
  void maybe_compact();

  // Binary max-heaps on the inverted Entry comparison (std::push_heap /
  // std::pop_heap over plain vectors, not std::priority_queue): raw
  // vectors are what lets maybe_compact() work in place and the arena
  // recycle capacity instead of reallocating.
  std::vector<Entry> heap_;
  // Index of pending kShared events only (lane-filed ones included),
  // skimmed lazily like heap_; keeps next_shared_time() O(log shared)
  // instead of a scan.
  std::vector<Entry> shared_heap_;

  std::array<Lane, kMaxLanes> lanes_;
  std::size_t lane_count_ = 0;     // lanes ever opened (a prefix of lanes_)
  std::size_t lane_entries_ = 0;   // entries across all lanes, dead included
  std::array<Duration, kRecentDelays> recent_{};
  std::size_t recent_seen_ = 0;    // non-lane delays recorded so far
  int min_ = kUnknown;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;  // LIFO list threaded through slots_

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace tsu::sim
