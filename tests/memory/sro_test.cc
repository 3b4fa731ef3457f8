#include "src/memory/sro.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/base/xorshift.h"

namespace imax432 {
namespace {

TEST(SroTest, FirstFitAllocates) {
  Sro sro(0, 0, 1000, 100, kInvalidObjectIndex);
  auto a = sro.AllocateRange(40);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), 1000u);
  auto b = sro.AllocateRange(40);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), 1040u);
  EXPECT_EQ(sro.allocated_bytes(), 80u);
  EXPECT_EQ(sro.free_bytes(), 20u);
}

TEST(SroTest, ExhaustionFaults) {
  Sro sro(0, 0, 0, 64, kInvalidObjectIndex);
  ASSERT_TRUE(sro.AllocateRange(64).ok());
  EXPECT_EQ(sro.AllocateRange(1).fault(), Fault::kStorageExhausted);
}

TEST(SroTest, ZeroByteRequestRoundsToOne) {
  // "a segment of from 1 byte to 128K bytes in length" — a segment is at least a byte.
  Sro sro(0, 0, 0, 4, kInvalidObjectIndex);
  ASSERT_TRUE(sro.AllocateRange(0).ok());
  EXPECT_EQ(sro.allocated_bytes(), 1u);
}

TEST(SroTest, FreeCoalescesWithNeighbors) {
  Sro sro(0, 0, 0, 300, kInvalidObjectIndex);
  auto a = sro.AllocateRange(100);
  auto b = sro.AllocateRange(100);
  auto c = sro.AllocateRange(100);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(sro.largest_free_extent(), 0u);

  // Free a and c: two disjoint extents.
  sro.FreeRange(a.value(), 100);
  sro.FreeRange(c.value(), 100);
  EXPECT_EQ(sro.extent_count(), 2u);
  EXPECT_EQ(sro.largest_free_extent(), 100u);

  // Free b: all three must merge into one extent.
  sro.FreeRange(b.value(), 100);
  EXPECT_EQ(sro.extent_count(), 1u);
  EXPECT_EQ(sro.largest_free_extent(), 300u);
  EXPECT_EQ(sro.allocated_bytes(), 0u);
}

TEST(SroTest, FragmentationCanBlockLargeRequests) {
  Sro sro(0, 0, 0, 300, kInvalidObjectIndex);
  auto a = sro.AllocateRange(100);
  auto b = sro.AllocateRange(100);
  auto c = sro.AllocateRange(100);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  sro.FreeRange(a.value(), 100);
  sro.FreeRange(c.value(), 100);
  // 200 bytes free, but no extent of 150.
  EXPECT_EQ(sro.free_bytes(), 200u);
  EXPECT_EQ(sro.AllocateRange(150).fault(), Fault::kStorageExhausted);
}

TEST(SroTest, ObjectBookkeeping) {
  Sro sro(0, 2, 0, 100, kInvalidObjectIndex);
  EXPECT_EQ(sro.RecordObject(10), 0u);
  EXPECT_EQ(sro.RecordObject(11), 1u);
  EXPECT_EQ(sro.RecordObject(12), 2u);
  EXPECT_EQ(sro.objects().size(), 3u);
  // The last member moves into the vacated position.
  EXPECT_EQ(sro.ForgetObject(11, 1), 12u);
  EXPECT_EQ(sro.objects().size(), 2u);
  // Forgetting an unknown index is a no-op, whatever position it claims.
  EXPECT_EQ(sro.ForgetObject(99, 0), kInvalidObjectIndex);
  EXPECT_EQ(sro.ForgetObject(99, 7), kInvalidObjectIndex);
  EXPECT_EQ(sro.objects().size(), 2u);
  // Forgetting the last member moves nothing.
  EXPECT_EQ(sro.ForgetObject(12, 1), kInvalidObjectIndex);
  EXPECT_EQ(sro.objects(), (std::vector<ObjectIndex>{10}));
  sro.RecordObject(13);
  auto taken = sro.TakeObjects();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(sro.objects().empty());
}

// Property test: removal through stored positions yields exactly the member order of the
// reference model (find the member, move the last member into its place), which bulk SRO
// destruction and the swapping manager's eviction scan depend on.
TEST(SroTest, PropertyPositionRemovalMatchesReferenceOrder) {
  Xorshift rng(1981);
  Sro sro(0, 0, 0, 100, kInvalidObjectIndex);
  std::vector<ObjectIndex> reference;
  std::map<ObjectIndex, uint32_t> position;  // what the descriptors hold
  ObjectIndex next = 0;
  for (int step = 0; step < 5000; ++step) {
    if (reference.empty() || rng.NextChance(11, 20)) {
      ObjectIndex index = next++;
      position[index] = sro.RecordObject(index);
      reference.push_back(index);
    } else if (rng.NextChance(1, 10)) {
      // Unknown or stale: neither list changes.
      ObjectIndex stranger = next + static_cast<ObjectIndex>(rng.NextBelow(50));
      uint32_t claimed = static_cast<uint32_t>(rng.NextBelow(reference.size() + 2));
      EXPECT_EQ(sro.ForgetObject(stranger, claimed), kInvalidObjectIndex);
    } else {
      ObjectIndex victim = reference[rng.NextBelow(reference.size())];
      auto it = std::find(reference.begin(), reference.end(), victim);
      *it = reference.back();
      reference.pop_back();
      ObjectIndex moved = sro.ForgetObject(victim, position[victim]);
      if (moved != kInvalidObjectIndex) {
        position[moved] = position[victim];
      }
      position.erase(victim);
    }
    ASSERT_EQ(sro.objects(), reference) << "step " << step;
  }
  for (const auto& [index, pos] : position) {
    ASSERT_EQ(sro.objects()[pos], index);
  }
}

// Property test: random allocate/free sequences preserve the accounting invariant
// allocated + sum(free extents) == region size, and coalescing keeps extents disjoint+sorted.
TEST(SroTest, PropertyRandomAllocFreeConservesBytes) {
  Xorshift rng(2024);
  Sro sro(0, 0, 10000, 8192, kInvalidObjectIndex);
  std::vector<std::pair<PhysAddr, uint32_t>> live;

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextChance(3, 5)) {
      uint32_t bytes = static_cast<uint32_t>(rng.NextInRange(1, 256));
      auto base = sro.AllocateRange(bytes);
      if (base.ok()) {
        live.emplace_back(base.value(), bytes);
      }
    } else {
      size_t pick = rng.NextBelow(live.size());
      sro.FreeRange(live[pick].first, live[pick].second);
      live[pick] = live.back();
      live.pop_back();
    }
    uint64_t live_bytes = 0;
    for (const auto& [base, len] : live) {
      live_bytes += len;
    }
    ASSERT_EQ(sro.allocated_bytes(), live_bytes);
    ASSERT_EQ(sro.free_bytes(), 8192 - live_bytes);
  }

  // Release everything: one extent must remain.
  for (const auto& [base, len] : live) {
    sro.FreeRange(base, len);
  }
  EXPECT_EQ(sro.extent_count(), 1u);
  EXPECT_EQ(sro.largest_free_extent(), 8192u);
}

}  // namespace
}  // namespace imax432
