#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

// alloc_hooks.hpp replaces global operator new/delete - this must be the
// only translation unit of the binary that includes it.
#include "tsu/util/alloc_hooks.hpp"
#include "tsu/util/arena.hpp"
#include "tsu/util/ring.hpp"
#include "tsu/util/rng.hpp"
#include "tsu/util/status.hpp"
#include "tsu/util/strings.hpp"

namespace tsu {
namespace {

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformU64RespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformU64SingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_u64(5, 5), 5u);
}

TEST(RngTest, UniformU64CoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformI64HandlesNegativeRanges) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_i64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, IndexStaysBelowBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(RngTest, Uniform01InHalfOpenUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, Uniform01MeanNearHalf) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(23);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RngTest, NormalMeanAndSpread) {
  Rng rng(29);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, LognormalMedianRoughlyMatches) {
  Rng rng(31);
  std::vector<double> samples;
  for (int i = 0; i < 10001; ++i) samples.push_back(rng.lognormal_median(5.0, 0.7));
  std::nth_element(samples.begin(), samples.begin() + 5000, samples.end());
  EXPECT_NEAR(samples[5000], 5.0, 0.3);
}

TEST(RngTest, ParetoWithinBounds) {
  Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.pareto(1.5, 1.0, 100.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 100.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng parent(47);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (parent() == child()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

// --------------------------------------------------------------- strings --

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(StringsTest, SplitNoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("oldpath", "old"));
  EXPECT_FALSE(starts_with("old", "oldpath"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(StringsTest, ParseIntAcceptsValid) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("+5"), 5);
  EXPECT_EQ(parse_int("9223372036854775807"), INT64_MAX);
}

TEST(StringsTest, ParseIntRejectsJunk) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("-").has_value());
  EXPECT_FALSE(parse_int("12a").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int(" 1").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());  // overflow
}

TEST(StringsTest, FormatDurationPicksUnit) {
  EXPECT_EQ(format_duration_ns(500), "500 ns");
  EXPECT_EQ(format_duration_ns(1'500), "1.50 us");
  EXPECT_EQ(format_duration_ns(2'500'000), "2.50 ms");
  EXPECT_EQ(format_duration_ns(3'200'000'000ULL), "3.20 s");
}

TEST(StringsTest, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

// ---------------------------------------------------------------- status --

TEST(StatusTest, ResultHoldsValue) {
  const Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(r.value_or(9), 5);
}

TEST(StatusTest, ResultHoldsError) {
  const Result<int> r(make_error(Errc::kNotFound, "nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kNotFound);
  EXPECT_EQ(r.error().message, "nope");
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(StatusTest, StatusDefaultsToOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
}

TEST(StatusTest, StatusCarriesError) {
  const Status s = make_error(Errc::kParseError, "bad");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().to_string(), "parse_error: bad");
}

TEST(StatusTest, ErrcNames) {
  EXPECT_STREQ(to_string(Errc::kInvalidArgument), "invalid_argument");
  EXPECT_STREQ(to_string(Errc::kExhausted), "exhausted");
}

TEST(StatusTest, MovedResultTransfersOwnership) {
  Result<std::string> r(std::string("payload"));
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

namespace {
struct DtorProbe {
  int id;
  std::vector<int>* order;
  DtorProbe(int id, std::vector<int>* order) : id(id), order(order) {}
  ~DtorProbe() { order->push_back(id); }
};
}  // namespace

TEST(SetupArenaTest, PacksObjectsIntoOneChunk) {
  util::SetupArena arena;
  for (int i = 0; i < 100; ++i) {
    int* p = arena.make<int>(i);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
  // 100 ints fit the 64 KiB default chunk with room to spare, and ints
  // are trivially destructible so the dtor registry stays empty.
  EXPECT_EQ(arena.chunks(), 1u);
  EXPECT_EQ(arena.objects(), 0u);
}

TEST(SetupArenaTest, DestroysInReverseCreationOrder) {
  std::vector<int> order;
  {
    util::SetupArena arena;
    for (int i = 0; i < 5; ++i) arena.make<DtorProbe>(i, &order);
    EXPECT_EQ(arena.objects(), 5u);
    EXPECT_TRUE(order.empty());  // nothing destroyed while the arena lives
  }
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(SetupArenaTest, GrowsByChunksAndHandlesOversizedRequests) {
  util::SetupArena arena(64);  // tiny chunks force growth
  struct Big {
    char bytes[256];
  };
  char* small = arena.make<char>('x');
  Big* big = arena.make<Big>();  // larger than a whole chunk
  char* after = arena.make<char>('y');
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(*small, 'x');
  EXPECT_EQ(*after, 'y');
  EXPECT_GE(arena.chunks(), 2u);
}

TEST(SetupArenaTest, RespectsAlignment) {
  util::SetupArena arena;
  struct alignas(64) Aligned {
    char c;
  };
  arena.make<char>('a');  // misalign the bump pointer
  Aligned* p = arena.make<Aligned>();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

// -------------------------------------------------------------- FlatRing --

TEST(FlatRingTest, ReservedRingWrapsWithoutAllocating) {
  util::FlatRing<int> ring;
  ring.reserve(4);
  const std::uint64_t before = alloc_hooks::allocations();
  ring.reserve(2);  // never shrinks
  int pushed = 0;
  int popped = 0;
  for (int i = 0; i < 3; ++i) ring.push_back(pushed++);
  // At depth 3 and 4 the head and tail wrap round the four slots.
  for (int i = 0; i < 20; ++i) {
    ring.push_back(pushed++);
    EXPECT_EQ(ring.front(), popped++);
    ring.pop_front();
  }
  ring.push_back(pushed++);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(alloc_hooks::allocations(), before);

  ring.push_back(pushed++);  // past the reservation: the ring grows
  EXPECT_GT(alloc_hooks::allocations(), before);
  EXPECT_EQ(ring.size(), 5u);
  while (!ring.empty()) {
    EXPECT_EQ(ring.front(), popped++);
    ring.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

}  // namespace
}  // namespace tsu
