#include "src/arch/object_table.h"

#include <gtest/gtest.h>

#include <set>

#include "src/base/xorshift.h"

namespace imax432 {
namespace {

// A table of `capacity` slots in which exactly `keep` are allocated.
void AllocateOnly(ObjectTable& table, const std::set<ObjectIndex>& keep) {
  for (uint32_t i = 0; i < table.capacity(); ++i) {
    ASSERT_TRUE(table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0).ok());
  }
  for (uint32_t i = 0; i < table.capacity(); ++i) {
    if (keep.count(i) == 0) {
      ASSERT_TRUE(table.Free(i).ok());
    }
  }
}

TEST(ObjectTableTest, AllocateInitializesDescriptor) {
  ObjectTable table(16);
  auto index = table.Allocate(SystemType::kPort, /*level=*/2, /*data_base=*/100,
                              /*data_length=*/32, /*access_slots=*/4,
                              /*origin_sro=*/7, /*storage_claim=*/48);
  ASSERT_TRUE(index.ok());
  const ObjectDescriptor& d = table.At(index.value());
  EXPECT_TRUE(d.allocated);
  EXPECT_EQ(d.type, SystemType::kPort);
  EXPECT_EQ(d.level, 2u);
  EXPECT_EQ(d.data_base, 100u);
  EXPECT_EQ(d.data_length, 32u);
  EXPECT_EQ(d.access_count(), 4u);
  EXPECT_EQ(d.origin_sro, 7u);
  EXPECT_EQ(d.storage_claim, 48u);
  EXPECT_EQ(d.color, GcColor::kWhite);
  for (const AccessDescriptor& slot : d.access) {
    EXPECT_TRUE(slot.is_null());
  }
  EXPECT_EQ(table.live_count(), 1u);
}

TEST(ObjectTableTest, ExhaustionFaults) {
  ObjectTable table(2);
  ASSERT_TRUE(table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0).ok());
  ASSERT_TRUE(table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0).ok());
  auto third = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
  EXPECT_EQ(third.fault(), Fault::kObjectTableFull);
}

TEST(ObjectTableTest, OversizedPartsFault) {
  ObjectTable table(4);
  EXPECT_EQ(table.Allocate(SystemType::kGeneric, 0, 0, kMaxDataPartBytes + 1, 0, 0, 0).fault(),
            Fault::kSegmentTooLarge);
  EXPECT_EQ(table.Allocate(SystemType::kGeneric, 0, 0, 0, kMaxAccessPartSlots + 1, 0, 0).fault(),
            Fault::kSegmentTooLarge);
  // The architectural maxima themselves are allowed.
  EXPECT_TRUE(
      table.Allocate(SystemType::kGeneric, 0, 0, kMaxDataPartBytes, kMaxAccessPartSlots, 0, 0)
          .ok());
}

TEST(ObjectTableTest, FreeRecyclesSlotWithNewGeneration) {
  ObjectTable table(2);
  auto first = table.Allocate(SystemType::kGeneric, 0, 0, 8, 0, 0, 8);
  ASSERT_TRUE(first.ok());
  uint32_t old_generation = table.At(first.value()).generation;
  ASSERT_TRUE(table.Free(first.value()).ok());
  EXPECT_EQ(table.live_count(), 0u);

  auto second = table.Allocate(SystemType::kGeneric, 0, 0, 8, 0, 0, 8);
  ASSERT_TRUE(second.ok());
  // Slot may be reused, but generation must have advanced.
  if (second.value() == first.value()) {
    EXPECT_GT(table.At(second.value()).generation, old_generation);
  }
}

TEST(ObjectTableTest, ResolveChecksNullStaleAndRange) {
  ObjectTable table(4);
  auto index = table.Allocate(SystemType::kGeneric, 0, 0, 8, 0, 0, 8);
  ASSERT_TRUE(index.ok());
  auto ad = table.MintAd(index.value(), rights::kRead);
  ASSERT_TRUE(ad.ok());

  EXPECT_TRUE(table.Resolve(ad.value()).ok());
  EXPECT_EQ(table.Resolve(AccessDescriptor()).fault(), Fault::kNullAccess);
  EXPECT_EQ(table.Resolve(AccessDescriptor(99, 0, rights::kRead)).fault(),
            Fault::kInvalidAccess);

  // Stale generation: free and re-resolve.
  ASSERT_TRUE(table.Free(index.value()).ok());
  EXPECT_EQ(table.Resolve(ad.value()).fault(), Fault::kInvalidAccess);
}

TEST(ObjectTableTest, StaleAdDiesEvenAfterSlotReuse) {
  ObjectTable table(1);  // force reuse of the single slot
  auto first = table.Allocate(SystemType::kGeneric, 0, 0, 8, 0, 0, 8);
  ASSERT_TRUE(first.ok());
  auto stale = table.MintAd(first.value(), rights::kAll);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(table.Free(first.value()).ok());

  auto second = table.Allocate(SystemType::kPort, 1, 0, 8, 0, 0, 8);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value(), first.value());  // same slot
  // The stale AD must not reach the new object.
  EXPECT_EQ(table.Resolve(stale.value()).fault(), Fault::kInvalidAccess);
}

TEST(ObjectTableTest, MintAdOnFreeSlotFaults) {
  ObjectTable table(2);
  EXPECT_EQ(table.MintAd(0, rights::kRead).fault(), Fault::kNotAllocated);
  EXPECT_EQ(table.MintAd(5, rights::kRead).fault(), Fault::kInvalidAccess);
}

TEST(ObjectTableTest, DoubleFreeFaults) {
  ObjectTable table(2);
  auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(table.Free(index.value()).ok());
  EXPECT_EQ(table.Free(index.value()).fault(), Fault::kNotAllocated);
}

TEST(ObjectTableTest, StorePermittedFollowsLevelRule) {
  ObjectDescriptor global;
  global.level = 0;
  ObjectDescriptor local;
  local.level = 3;
  ObjectDescriptor deeper;
  deeper.level = 5;

  // A container may reference same-or-longer-lived objects only.
  EXPECT_TRUE(ObjectTable::StorePermitted(local, global));
  EXPECT_TRUE(ObjectTable::StorePermitted(local, local));
  EXPECT_FALSE(ObjectTable::StorePermitted(local, deeper));
  EXPECT_FALSE(ObjectTable::StorePermitted(global, local));
}

TEST(ObjectTableTest, CountsTrackAllocations) {
  ObjectTable table(8);
  EXPECT_EQ(table.free_count(), 8u);
  std::vector<ObjectIndex> indices;
  for (int i = 0; i < 5; ++i) {
    auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
    ASSERT_TRUE(index.ok());
    indices.push_back(index.value());
  }
  EXPECT_EQ(table.live_count(), 5u);
  EXPECT_EQ(table.free_count(), 3u);
  ASSERT_TRUE(table.Free(indices[2]).ok());
  EXPECT_EQ(table.live_count(), 4u);
}

TEST(ObjectTableTest, DescriptorKeepsItsSize) {
  // sro_position sits in tail padding; the table's footprint (capacity x this) must not grow.
  if constexpr (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(ObjectDescriptor), 80u);
  }
}

TEST(ObjectTableTest, NextAllocatedOnEmptyTable) {
  ObjectTable table(200);
  EXPECT_EQ(table.NextAllocated(0, 200), 200u);
  EXPECT_EQ(table.NextAllocated(0, 1000), 200u);  // end clamps to capacity
  EXPECT_EQ(table.NextAllocated(70, 130), 130u);
  EXPECT_EQ(table.NextAllocated(150, 100), 100u);  // empty range
}

TEST(ObjectTableTest, NextAllocatedAcrossWordBoundary) {
  ObjectTable table(200);
  AllocateOnly(table, {63, 64, 65});
  EXPECT_EQ(table.NextAllocated(0, 200), 63u);
  EXPECT_EQ(table.NextAllocated(63, 200), 63u);
  EXPECT_EQ(table.NextAllocated(64, 200), 64u);
  EXPECT_EQ(table.NextAllocated(65, 200), 65u);
  EXPECT_EQ(table.NextAllocated(66, 200), 200u);
  // `end` is exclusive: a set bit at or past it is not found.
  EXPECT_EQ(table.NextAllocated(0, 63), 63u);
  EXPECT_EQ(table.NextAllocated(0, 64), 63u);
  EXPECT_EQ(table.NextAllocated(64, 65), 64u);
  EXPECT_EQ(table.NextAllocated(66, 5000), 200u);
}

TEST(ObjectTableTest, NextAllocatedWithCapacityNotAMultipleOf64) {
  ObjectTable table(70);
  AllocateOnly(table, {0, 69});
  EXPECT_EQ(table.NextAllocated(0, 70), 0u);
  EXPECT_EQ(table.NextAllocated(1, 70), 69u);
  EXPECT_EQ(table.NextAllocated(1, 1u << 20), 69u);
  EXPECT_EQ(table.NextAllocated(1, 69), 69u);
  EXPECT_EQ(table.NextAllocated(70, 1u << 20), 70u);
}

TEST(ObjectTableTest, NextAllocatedFollowsFreeAndReuse) {
  ObjectTable table(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0).ok());
  }
  EXPECT_EQ(table.NextAllocated(1, 8), 1u);
  ASSERT_TRUE(table.Free(1).ok());
  EXPECT_EQ(table.NextAllocated(1, 8), 2u);
  auto reused = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(reused.value(), 1u);
  EXPECT_EQ(table.NextAllocated(1, 8), 1u);
}

// Property test: after random allocate/free sequences, ForEachAllocated visits exactly the
// allocated slots, ascending.
TEST(ObjectTableTest, PropertyForEachAllocatedMatchesDescriptors) {
  Xorshift rng(4321);
  ObjectTable table(333);
  std::vector<ObjectIndex> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.NextChance(1, 2)) {
      auto index = table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0);
      if (index.ok()) {
        live.push_back(index.value());
      }
    } else {
      size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(table.Free(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    if (step % 100 != 0) {
      continue;
    }
    std::vector<ObjectIndex> expected;
    for (ObjectIndex i = 0; i < table.capacity(); ++i) {
      if (table.At(i).allocated) {
        expected.push_back(i);
      }
    }
    std::vector<ObjectIndex> visited;
    table.ForEachAllocated(0, table.capacity(), [&](ObjectIndex i) { visited.push_back(i); });
    ASSERT_EQ(visited, expected) << "step " << step;
  }
}

TEST(ObjectTableTest, ForEachAllocatedSeesChangesAheadOfTheWalk) {
  // The sweep frees slots ahead of its position (a garbage SRO cascades): the walk must
  // skip them, and must visit a slot allocated ahead of it.
  ObjectTable table(200);
  AllocateOnly(table, {10, 100, 150});
  std::vector<ObjectIndex> visited;
  table.ForEachAllocated(0, table.capacity(), [&](ObjectIndex i) {
    visited.push_back(i);
    if (i == 10) {
      ASSERT_TRUE(table.Free(100).ok());
    }
  });
  EXPECT_EQ(visited, (std::vector<ObjectIndex>{10, 150}));
  // Allocation reuses the most recently freed slot (100) first.
  std::vector<ObjectIndex> second;
  table.ForEachAllocated(0, table.capacity(), [&](ObjectIndex i) {
    second.push_back(i);
    if (i == 10) {
      ASSERT_TRUE(table.Allocate(SystemType::kGeneric, 0, 0, 0, 0, 0, 0).ok());
    }
  });
  EXPECT_EQ(second, (std::vector<ObjectIndex>{10, 100, 150}));
}

}  // namespace
}  // namespace imax432
