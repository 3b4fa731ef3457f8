// The AD-translation cache (src/arch/xlat_cache.h) and its kernel integration: the
// direct-mapped structure itself, the addressing-unit tier (every downstream check still
// enforced), the program-fetch tier, and invalidation when a segment's code is dropped.
// xlat_differential_test.cc checks the cached paths against an uncached reference.

#include "src/analysis/program_analyses.h"
#include "src/arch/xlat_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/arch/object_descriptor.h"
#include "src/arch/rights.h"
#include "src/exec/kernel.h"
#include "src/isa/assembler.h"
#include "src/memory/basic_memory_manager.h"
#include "src/os/system.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 8192;
  return config;
}

// --- The structure itself ---------------------------------------------------------------

TEST(XlatCacheTest, ProbeIsDirectMappedModuloEntries) {
  XlatCache cache;
  EXPECT_EQ(&cache.Probe(5), &cache.Probe(5 + XlatCache::kEntries));
  EXPECT_NE(&cache.Probe(5), &cache.Probe(6));
}

TEST(XlatCacheTest, ClearDropsEntriesButKeepsStats) {
  XlatCache cache;
  cache.Probe(3).index = 3;
  cache.stats().hits = 7;
  cache.Clear();
  EXPECT_EQ(cache.Probe(3).index, kInvalidObjectIndex);
  EXPECT_EQ(cache.Probe(3).descriptor, nullptr);
  EXPECT_EQ(cache.stats().hits, 7u);
}

// --- Addressing-unit tier ---------------------------------------------------------------

class XlatAddressingTest : public ::testing::Test {
 protected:
  XlatAddressingTest() : machine_(SmallConfig()), memory_(&machine_) {
    machine_.addressing().BindXlatCache(&cache_);
  }

  ~XlatAddressingTest() override { machine_.addressing().BindXlatCache(nullptr); }

  AccessDescriptor MakeObject(RightsMask rights = rights::kRead | rights::kWrite |
                                                  rights::kDelete) {
    auto object =
        memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 64, 0, rights);
    EXPECT_TRUE(object.ok());
    return object.value();
  }

  Machine machine_;
  BasicMemoryManager memory_;
  XlatCache cache_;
};

TEST_F(XlatAddressingTest, RepeatedAccessHitsAfterTheFirstMiss) {
  AccessDescriptor ad = MakeObject();
  ASSERT_TRUE(machine_.addressing().WriteData(ad, 0, 8, 17).ok());
  uint64_t misses = cache_.stats().misses;
  ASSERT_GT(misses, 0u);
  for (int i = 0; i < 10; ++i) {
    auto read = machine_.addressing().ReadData(ad, 0, 8);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), 17u);
  }
  EXPECT_GT(cache_.stats().hits, 0u);
  EXPECT_EQ(cache_.stats().misses, misses);  // no further authoritative resolves
}

TEST_F(XlatAddressingTest, QuarantineIsStillEnforcedOnCacheHits) {
  AccessDescriptor ad = MakeObject();
  ASSERT_TRUE(machine_.addressing().WriteData(ad, 0, 8, 1).ok());  // entry now cached
  machine_.table().At(ad.index()).quarantined = true;
  auto read = machine_.addressing().ReadData(ad, 0, 8);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.fault(), Fault::kObjectQuarantined);
}

TEST_F(XlatAddressingTest, RightsAreStillEnforcedOnCacheHits) {
  AccessDescriptor ad = MakeObject();
  ASSERT_TRUE(machine_.addressing().ReadData(ad, 0, 8).ok());  // fill
  AccessDescriptor read_only = ad.Restricted(rights::kRead);
  EXPECT_TRUE(machine_.addressing().ReadData(read_only, 0, 8).ok());
  EXPECT_EQ(machine_.addressing().WriteData(read_only, 0, 8, 1).fault(),
            Fault::kRightsViolation);
}

TEST_F(XlatAddressingTest, FreedObjectMissesAndFaultsThroughTheCache) {
  AccessDescriptor ad = MakeObject();
  ASSERT_TRUE(machine_.addressing().ReadData(ad, 0, 8).ok());  // fill
  ASSERT_TRUE(memory_.DestroyObject(ad).ok());
  auto read = machine_.addressing().ReadData(ad, 0, 8);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.fault(), Fault::kInvalidAccess);
}

TEST_F(XlatAddressingTest, ReusedSlotNeverServesTheOldGeneration) {
  AccessDescriptor old_ad = MakeObject();
  ObjectIndex index = old_ad.index();
  ASSERT_TRUE(machine_.addressing().ReadData(old_ad, 0, 8).ok());  // fill
  ASSERT_TRUE(memory_.DestroyObject(old_ad).ok());
  // Allocate until the slot is reused (the basic manager reuses low indices eagerly).
  AccessDescriptor reused;
  for (int i = 0; i < 64 && reused.index() != index; ++i) {
    reused = MakeObject();
  }
  if (reused.index() == index) {
    ASSERT_TRUE(machine_.addressing().WriteData(reused, 0, 8, 99).ok());
    EXPECT_EQ(machine_.addressing().ReadData(old_ad, 0, 8).fault(), Fault::kInvalidAccess);
    auto fresh = machine_.addressing().ReadData(reused, 0, 8);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.value(), 99u);
  }
}

// --- Direct-mapped conflicts: aliasing indices share one slot ---------------------------

class XlatConflictTest : public XlatAddressingTest {
 protected:
  // Allocates until an object lands on `first`'s slot (the table hands out consecutive
  // indices, so at most kEntries allocations are needed).
  AccessDescriptor MakeAliasingObject(const AccessDescriptor& first) {
    for (uint32_t i = 0; i < 2 * XlatCache::kEntries; ++i) {
      AccessDescriptor candidate = MakeObject();
      if (candidate.index() != first.index() &&
          (candidate.index() & (XlatCache::kEntries - 1)) ==
              (first.index() & (XlatCache::kEntries - 1))) {
        return candidate;
      }
    }
    ADD_FAILURE() << "no aliasing index allocated";
    return first;
  }
};

TEST_F(XlatConflictTest, AliasingObjectsEvictEachOtherAndStayCorrect) {
  AccessDescriptor a = MakeObject();
  AccessDescriptor b = MakeAliasingObject(a);
  ASSERT_TRUE(machine_.addressing().WriteData(a, 0, 8, 111).ok());
  ASSERT_TRUE(machine_.addressing().WriteData(b, 0, 8, 222).ok());
  // b's fill took the shared slot.
  EXPECT_EQ(cache_.Probe(a.index()).index, b.index());

  uint64_t misses = cache_.stats().misses;
  auto read_a = machine_.addressing().ReadData(a, 0, 8);  // conflict miss: evicts b
  ASSERT_TRUE(read_a.ok());
  EXPECT_EQ(read_a.value(), 111u);
  EXPECT_GT(cache_.stats().misses, misses);
  EXPECT_EQ(cache_.Probe(b.index()).index, a.index());

  auto read_b = machine_.addressing().ReadData(b, 0, 8);  // and back again
  ASSERT_TRUE(read_b.ok());
  EXPECT_EQ(read_b.value(), 222u);
  EXPECT_EQ(cache_.Probe(a.index()).index, b.index());
}

// --- Kernel integration ------------------------------------------------------------------

// A self-contained workload: bumps a counter in the shared object `iters` times.
Assembler CounterLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 0)
      .LoadImm(3, iters)
      .Bind(loop)
      .LoadData(2, 1, 0, 8)
      .AddImm(2, 2, 1)
      .StoreData(1, 2, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 3, loop)
      .Halt();
  return a;
}

SystemConfig CacheConfig() {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 1;
  config.verify_on_load = true;  // summaries land at spawn
  config.start_gc_daemon = false;
  return config;
}

struct RunOutcome {
  Cycles now = 0;
  uint64_t instructions = 0;
  uint64_t counter = 0;
};

RunOutcome RunCounterWorkload(System& system, uint32_t iters) {
  auto shared = system.memory().CreateObject(system.memory().global_heap(),
                                             SystemType::kGeneric, 64, 0,
                                             rights::kRead | rights::kWrite);
  EXPECT_TRUE(shared.ok());
  Assembler a = CounterLoop("xlat.counter", iters);
  ProcessOptions options;
  options.initial_arg = shared.value();
  EXPECT_TRUE(system.Spawn(a.Build(), options).ok());
  system.Run();
  RunOutcome outcome;
  outcome.now = system.machine().now();
  outcome.instructions = system.kernel().stats().instructions_executed;
  auto counter = system.machine().addressing().ReadData(shared.value(), 0, 8);
  EXPECT_TRUE(counter.ok());
  outcome.counter = counter.value();
  return outcome;
}

TEST(XlatKernelTest, HotLoopPopulatesBothCacheTiers) {
  System system(CacheConfig());
  RunOutcome outcome = RunCounterWorkload(system, 200);
  EXPECT_EQ(outcome.counter, 200u);
  XlatCacheStats stats = system.kernel().xlat_stats();
  EXPECT_GT(stats.hits, 0u);
  // One fill per segment, then every fetch of the 1000-step loop hits.
  EXPECT_GT(stats.program_misses, 0u);
  EXPECT_GT(stats.program_hits, 5 * stats.program_misses);
  EXPECT_GE(stats.program_hits + stats.program_misses, outcome.instructions);
}

// "Off" is the engine that resolved every access and fetch through the object table and
// the program store; these values were recorded from it. The cache serves host-side work
// only, so the cached engine must reproduce them exactly, trace fingerprint included.
TEST(XlatKernelTest, VirtualTimeAndResultsAreBitIdenticalOffAndOn) {
  SystemConfig config = CacheConfig();
  config.trace = true;
  System system(config);
  RunOutcome outcome = RunCounterWorkload(system, 300);
  EXPECT_EQ(outcome.now, 14962u);
  EXPECT_EQ(outcome.instructions, 1504u);
  EXPECT_EQ(outcome.counter, 300u);

  uint64_t fingerprint = 1469598103934665603ull;  // FNV-1a over every payload word
  auto mix = [&fingerprint](uint64_t value) {
    fingerprint ^= value;
    fingerprint *= 1099511628211ull;
  };
  for (const TraceEvent& event : system.machine().trace().Snapshot()) {
    mix(event.ts);
    mix(event.process);
    mix(event.a);
    mix(event.b);
    mix(event.c);
    mix(event.cpu);
    mix(static_cast<uint64_t>(event.kind));
  }
  EXPECT_EQ(fingerprint, 0xf4fef35bf9923986ull);
}

TEST(XlatKernelTest, ForgetProgramAnalysisClearsTheCaches) {
  System system(CacheConfig());
  RunCounterWorkload(system, 100);
  ASSERT_FALSE(system.kernel().analyses().interference_summaries().empty());
  ObjectIndex segment = system.kernel().analyses().interference_summaries().begin()->first;
  uint64_t invalidations = system.kernel().stats().xlat_invalidations;
  system.kernel().programs().Retract(segment);
  EXPECT_GT(system.kernel().stats().xlat_invalidations, invalidations);
  EXPECT_EQ(system.kernel().analyses().interference_summaries().count(segment), 0u);
}

TEST(XlatKernelTest, InterferenceSummariesRideAlongWithEffectSummaries) {
  System system(CacheConfig());
  RunCounterWorkload(system, 10);
  EXPECT_EQ(system.kernel().stats().interference_summaries,
            system.kernel().stats().effect_summaries);
  ASSERT_EQ(system.kernel().analyses().interference_summaries().size(), 1u);
  const analysis::InterferenceSummary summary =
      system.kernel().analyses().interference_summaries().begin()->second;
  EXPECT_FALSE(summary.opaque);
  EXPECT_EQ(summary.region_count, 1u);  // the counter loop never synchronizes
}

}  // namespace
}  // namespace imax432
