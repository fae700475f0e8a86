// InlineFn, the small-buffer event closure of the allocation-free hot path
// (sim/inline_fn.hpp): inline-vs-heap storage, move semantics and eager
// reset.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>

#include "tsu/sim/inline_fn.hpp"

namespace tsu::sim {
namespace {

TEST(InlineFnTest, SmallClosureStaysInline) {
  int hits = 0;
  InlineFn fn([&hits]() { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFnTest, OversizedClosureFallsBackToHeap) {
  struct Big {
    std::byte pad[InlineFn::kInlineSize + 64];
  };
  Big big{};
  big.pad[0] = std::byte{42};
  int result = 0;
  InlineFn fn([big, &result]() {
    result = static_cast<int>(big.pad[0]);
  });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(result, 42);
}

TEST(InlineFnTest, MoveTransfersClosure) {
  auto probe = std::make_shared<int>(5);
  InlineFn a([probe]() { ++*probe; });
  EXPECT_EQ(probe.use_count(), 2);
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(use-after-move): spec'd empty
  EXPECT_EQ(probe.use_count(), 2);     // moved, not copied
  b();
  EXPECT_EQ(*probe, 6);
  InlineFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(*probe, 7);
  c.reset();
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(InlineFnTest, ResetDestroysClosureImmediately) {
  // The eager-cancel contract: reset() must release captured resources
  // NOW, not at the InlineFn's destruction.
  auto probe = std::make_shared<int>(1);
  InlineFn fn([probe]() {});
  EXPECT_EQ(probe.use_count(), 2);
  fn.reset();
  EXPECT_EQ(probe.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFnTest, HeapClosureResetReleases) {
  struct Big {
    std::shared_ptr<int> probe;
    std::byte pad[InlineFn::kInlineSize];
    void operator()() {}
  };
  auto probe = std::make_shared<int>(1);
  InlineFn fn(Big{probe, {}});
  EXPECT_FALSE(fn.is_inline());
  EXPECT_EQ(probe.use_count(), 2);
  fn.reset();
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(InlineFnTest, MoveAssignReleasesPreviousClosure) {
  auto old_probe = std::make_shared<int>(1);
  auto new_probe = std::make_shared<int>(2);
  InlineFn fn([old_probe]() {});
  EXPECT_EQ(old_probe.use_count(), 2);
  fn = InlineFn([new_probe]() {});
  EXPECT_EQ(old_probe.use_count(), 1);  // previous closure destroyed
  EXPECT_EQ(new_probe.use_count(), 2);
}

}  // namespace
}  // namespace tsu::sim
