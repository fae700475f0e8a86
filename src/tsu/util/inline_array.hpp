// Fixed-size array for per-call working sets sized by an input.
//
// The planners keep one value per new-path position or per touched node
// while they build a schedule. InlineArray<T, N> holds up to N values
// inline, so an ordinary instance plans without touching the allocator; a
// larger one pays a single heap block for the whole call.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>

namespace tsu::util {

template <typename T, std::size_t N>
class InlineArray {
 public:
  explicit InlineArray(std::size_t size, const T& fill = T{})
      : size_(size) {
    if (size > N) {
      heap_ = std::make_unique<T[]>(size);
      data_ = heap_.get();
    }
    std::fill_n(data_, size_, fill);
  }
  InlineArray(const InlineArray&) = delete;
  InlineArray& operator=(const InlineArray&) = delete;

  std::size_t size() const noexcept { return size_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  std::size_t size_;
  std::array<T, N> inline_;
  std::unique_ptr<T[]> heap_;
  T* data_ = inline_.data();
};

}  // namespace tsu::util
