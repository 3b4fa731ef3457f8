// The instruction-fetch ("decode") tier of the per-processor XlatCache and its kernel
// integration. The separate decode cache is gone: decoded programs ride in the fetch
// payload of the translation entries, revalidated against the segment's data_epoch and the
// ProgramStore version on every hit. These tests pin the payload's direct-mapped structure,
// the guard summaries recorded beside each program, the clear on analysis retraction, and
// the pure-observer contract (virtual time and instruction counts equal to the engine that
// fetched every instruction through the store).

#include <gtest/gtest.h>

#include <string>

#include "src/analysis/guards/guards.h"
#include "src/analysis/program_analyses.h"
#include "src/arch/xlat_cache.h"
#include "src/exec/kernel.h"
#include "src/isa/assembler.h"
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

// --- The fetch payload of the structure ----------------------------------------------------

TEST(DecodeCacheTest, ProbeIsDirectMappedModuloEntries) {
  XlatCache cache;
  int program = 0;
  cache.Probe(5).program = &program;
  EXPECT_EQ(cache.Probe(5 + XlatCache::kEntries).program, &program);
  EXPECT_EQ(cache.Probe(6).program, nullptr);
}

TEST(DecodeCacheTest, ClearDropsEntriesButKeepsStats) {
  XlatCache cache;
  int program = 0;
  XlatEntry& entry = cache.Probe(3);
  entry.index = 3;
  entry.program = &program;
  entry.program_version = 4;
  entry.data_epoch = 2;
  cache.stats().program_hits = 7;
  cache.stats().program_misses = 1;
  cache.Clear();
  EXPECT_EQ(cache.Probe(3).index, kInvalidObjectIndex);
  EXPECT_EQ(cache.Probe(3).program, nullptr);
  EXPECT_EQ(cache.Probe(3).program_version, 0u);
  EXPECT_EQ(cache.Probe(3).data_epoch, 0u);
  EXPECT_EQ(cache.stats().program_hits, 7u);
  EXPECT_EQ(cache.stats().program_misses, 1u);
}

// --- Kernel integration ------------------------------------------------------------------

SystemConfig CacheConfig() {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 1;
  config.verify_on_load = true;  // summaries land at spawn, like the shipped configuration
  config.start_gc_daemon = false;
  return config;
}

// Allocation-shaped hot loop (the E2 profile): every iteration creates a fresh object,
// stores into it, reads back, and destroys it. The store and the load are fresh sites, so
// the guard analysis certifies them unconditionally.
Assembler AllocLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)  // arg carries the SRO to allocate from
      .LoadImm(0, 0)
      .LoadImm(3, iters)
      .LoadImm(5, 41)
      .Bind(loop)
      .CreateObject(4, 1, 32)
      .StoreData(4, 5, 0, 8)
      .LoadData(6, 4, 0, 8)
      .DestroyObject(4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 3, loop)
      .Halt();
  return a;
}

struct RunOutcome {
  Cycles now = 0;
  uint64_t instructions = 0;
};

RunOutcome RunAllocWorkload(System& system, uint32_t iters) {
  Assembler a = AllocLoop("decode.alloc", iters);
  ProcessOptions options;
  options.initial_arg = system.memory().global_heap();
  EXPECT_TRUE(system.Spawn(a.Build(), options).ok());
  system.Run();
  RunOutcome outcome;
  outcome.now = system.machine().now();
  outcome.instructions = system.kernel().stats().instructions_executed;
  return outcome;
}

// "Off" is the engine that fetched every instruction through the program store and resolved
// every access through the object table; these values were recorded from it.
TEST(DecodeKernelTest, VirtualTimeAndInstructionsAreBitIdenticalOffAndOn) {
  System system(CacheConfig());
  RunOutcome outcome = RunAllocWorkload(system, 300);
  EXPECT_EQ(outcome.now, 318304u);
  EXPECT_EQ(outcome.instructions, 1805u);
  XlatCacheStats stats = system.kernel().xlat_stats();
  EXPECT_GT(stats.program_hits, 0u);
  EXPECT_GT(stats.program_misses, 0u);  // the compulsory fill
}

TEST(DecodeKernelTest, GuardSummariesRideAlongWithEffectSummaries) {
  System system(CacheConfig());
  RunAllocWorkload(system, 10);
  EXPECT_EQ(system.kernel().stats().guard_summaries,
            system.kernel().stats().effect_summaries);
  ASSERT_EQ(system.kernel().analyses().guard_summaries().size(), 1u);
  const analysis::GuardSummary summary =
      system.kernel().analyses().guard_summaries().begin()->second;
  EXPECT_FALSE(summary.opaque);
  EXPECT_GT(summary.counters.checks_elidable, 0u);
}

TEST(DecodeKernelTest, AnalyzeGuardsCertifiesTheFreshLoopSites) {
  System system(CacheConfig());
  RunAllocWorkload(system, 10);
  analysis::GuardAnalysisReport report = system.kernel().analyses().AnalyzeGuards();
  EXPECT_EQ(report.programs_analyzed, 1u);
  EXPECT_GT(report.checks_certified, 0u);
  EXPECT_EQ(report.checks_certified, report.certified_fresh);
  ASSERT_FALSE(report.certificates.empty());
}

TEST(DecodeKernelTest, ForgetProgramAnalysisDropsGuardSummariesAndClears) {
  System system(CacheConfig());
  RunAllocWorkload(system, 100);
  ASSERT_FALSE(system.kernel().analyses().guard_summaries().empty());
  ObjectIndex segment = system.kernel().analyses().guard_summaries().begin()->first;
  uint64_t invalidations = system.kernel().stats().xlat_invalidations;
  system.kernel().programs().Retract(segment);
  EXPECT_GT(system.kernel().stats().xlat_invalidations, invalidations);
  EXPECT_EQ(system.kernel().analyses().guard_summaries().count(segment), 0u);
}

// The fetch payload and the translation entries share one structure: both tiers serve the
// same run, and virtual time still equals the value recorded from the uncached engine.
TEST(DecodeKernelTest, DecodeCacheComposesWithTheXlatCache) {
  System system(CacheConfig());
  RunOutcome on = RunAllocWorkload(system, 150);
  EXPECT_EQ(on.now, 159180u);
  EXPECT_EQ(on.instructions, 905u);
  XlatCacheStats stats = system.kernel().xlat_stats();
  EXPECT_GT(stats.program_hits, 0u);
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace imax432
