// Simulated time: 64-bit nanoseconds since simulation start.
#pragma once

#include <cstdint>
#include <limits>

namespace tsu::sim {

using SimTime = std::uint64_t;   // absolute, ns
using Duration = std::uint64_t;  // relative, ns

inline constexpr Duration nanoseconds(std::uint64_t n) { return n; }
inline constexpr Duration microseconds(std::uint64_t n) { return n * 1'000ULL; }
inline constexpr Duration milliseconds(std::uint64_t n) {
  return n * 1'000'000ULL;
}
inline constexpr Duration seconds(std::uint64_t n) {
  return n * 1'000'000'000ULL;
}

inline constexpr double to_ms(Duration d) {
  return static_cast<double>(d) / 1e6;
}
inline constexpr double to_us(Duration d) {
  return static_cast<double>(d) / 1e3;
}

// The longest delay any floating-point conversion yields: 2^62 ns, about
// 146 years. Saturating there keeps every such duration, and the sum of
// two of them, inside the 64-bit clock.
inline constexpr Duration kMaxDuration = Duration{1} << 62;

// `at` plus `delay`, saturating at the largest SimTime instead of wrapping.
inline constexpr SimTime later(SimTime at, Duration delay) noexcept {
  constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  return delay > kNever - at ? kNever : at + delay;
}

// Convert a double amount of nanoseconds or milliseconds to a Duration:
// negative and NaN amounts give 0, amounts beyond kMaxDuration saturate at
// it.
Duration from_ns(double ns) noexcept;
Duration from_ms(double ms) noexcept;

}  // namespace tsu::sim
