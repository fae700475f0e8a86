// Flat circular FIFO backed by one contiguous slot vector.
//
// libstdc++'s std::deque allocates a fresh ~512-byte chunk roughly every
// 32 pushes even when the queue depth is constant (chunks are freed on
// pop and re-allocated on push), which makes deque-backed hot-path queues
// a steady-state allocator. FlatRing reuses its slots forever: pop_front
// only advances the head - the slot object stays alive, so element types
// with internal capacity (vectors, variants of such) keep it across
// reuse - and the backing vector grows geometrically only when depth
// exceeds every previous high-water mark (or a reserve()). Past that mark
// a push/pop regime of any length performs zero allocations.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "tsu/util/assert.hpp"

namespace tsu::util {

template <typename T>
class FlatRing {
 public:
  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  T& front() noexcept {
    TSU_ASSERT(count_ > 0);
    return slots_[head_];
  }
  const T& front() const noexcept {
    TSU_ASSERT(count_ > 0);
    return slots_[head_];
  }

  // Advances the head without destroying the slot: the element object
  // survives (typically moved-from) and its capacity is reused by a
  // later push into the same slot.
  void pop_front() noexcept {
    TSU_ASSERT(count_ > 0);
    head_ = (head_ + 1) % slots_.size();
    --count_;
  }

  void push_back(const T& value) { *next_slot() = value; }
  void push_back(T&& value) { *next_slot() = std::move(value); }

  // Drops the queued elements; slots (and their capacity) stay.
  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

  // Grows the ring to at least `slots` slots now, so that depth up to
  // `slots` never allocates later.
  void reserve(std::size_t slots) {
    if (slots > slots_.size()) resize(slots);
  }

 private:
  T* next_slot() {
    if (count_ == slots_.size())
      resize(slots_.empty() ? 8 : slots_.size() * 2);
    T* slot = &slots_[(head_ + count_) % slots_.size()];
    ++count_;
    return slot;
  }

  void resize(std::size_t slots) {
    std::vector<T> bigger(slots);
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) % slots_.size()]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tsu::util
