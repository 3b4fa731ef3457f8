// Ground truth for the guard-dominance analysis on a live kernel: a dominated load over a
// writer-free shared object certifies non-fresh, a writer entering the system retracts that
// certificate, a hot-patched segment retracts its analysis through the ProgramStore replace
// hook, and the corpus replays to the trace fingerprint of the uncached engine. The
// certificates are static verdicts: every check stays dynamic. decode_cache_test.cc covers
// the per-program guard summaries and the fresh-site certificates.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/guards/guards.h"
#include "src/analysis/program_analyses.h"
#include "src/arch/rights.h"
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

SystemConfig CorpusConfig() {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 1;
  config.verify_on_load = true;
  config.start_gc_daemon = false;  // the daemon's native steps would opaque the system
  return config;
}

AccessDescriptor MakeShared(System& system, const std::string& name,
                            uint64_t initial_value = 0) {
  auto object = system.memory().CreateObject(system.memory().global_heap(),
                                             SystemType::kGeneric, 64, 0,
                                             rights::kRead | rights::kWrite);
  EXPECT_TRUE(object.ok());
  system.kernel().analyses().symbols().Name(object.value().index(), name);
  EXPECT_TRUE(
      system.machine().addressing().WriteData(object.value(), 0, 8, initial_value).ok());
  return object.value();
}

void Spawn(System& system, Assembler& a, const AccessDescriptor& arg) {
  ProcessOptions options;
  options.initial_arg = arg;
  auto process = system.Spawn(a.Build(), options);
  ASSERT_TRUE(process.ok()) << FaultName(process.fault());
}

// Reads the shared object twice per iteration: the second load's rights + bounds are
// dominated by the first, so it is the elidable (and, writer-free, certifiable) site.
Assembler DominatedReadLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 0)
      .LoadImm(4, iters)
      .Bind(loop)
      .LoadData(2, 1, 0, 8)
      .LoadData(3, 1, 0, 8)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 4, loop)
      .Halt();
  return a;
}

Assembler WriteOnce(const std::string& name, uint64_t value) {
  Assembler a(name);
  a.MoveAd(1, kArgAdReg).LoadImm(2, value).StoreData(1, 2, 0, 8).Halt();
  return a;
}

// Allocation-shaped loop: the store + load against the fresh object certify even when the
// rest of the system is opaque.
uint64_t FingerprintTrace(const std::vector<TraceEvent>& events) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over every payload word
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const TraceEvent& event : events) {
    mix(event.ts);
    mix(event.process);
    mix(event.a);
    mix(event.b);
    mix(event.c);
    mix(event.cpu);
    mix(static_cast<uint64_t>(event.kind));
  }
  return h;
}

Assembler AllocLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
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

TEST(GuardsCorpusTest, WriterFreeSharedObjectCertifiesNonFresh) {
  System system(CorpusConfig());
  AccessDescriptor shared = MakeShared(system, "guards.table", 5);
  Assembler reader = DominatedReadLoop("guards.reader", 200);
  Spawn(system, reader, shared);

  // Static claim first: the dominated load certifies without being fresh.
  analysis::GuardAnalysisReport report = system.kernel().analyses().AnalyzeGuards();
  EXPECT_GT(report.checks_certified, 0u);
  EXPECT_EQ(report.certified_fresh, 0u);
  EXPECT_EQ(report.suppressed_interference, 0u);
  system.Run();
}

TEST(GuardsCorpusTest, WriterEnteringTheSystemRetractsTheCertificate) {
  System system(CorpusConfig());
  AccessDescriptor shared = MakeShared(system, "guards.retract", 5);
  Assembler reader = DominatedReadLoop("guards.reader", 50);
  Spawn(system, reader, shared);

  analysis::GuardAnalysisReport before = system.kernel().analyses().AnalyzeGuards();
  ASSERT_GT(before.checks_certified, 0u);

  // The writer's summary lands at spawn; the recomputed certificate set suppresses the
  // reader's site.
  Assembler writer = WriteOnce("guards.writer", 9);
  Spawn(system, writer, shared);

  analysis::GuardAnalysisReport after = system.kernel().analyses().AnalyzeGuards();
  EXPECT_EQ(after.checks_certified, 0u);
  EXPECT_GT(after.suppressed_interference, 0u);
  system.Run();
}

TEST(GuardsCorpusTest, ReplaceRetractsAnalysisThroughTheStoreHook) {
  System system(CorpusConfig());
  Assembler a = AllocLoop("guards.patch", 400);
  Spawn(system, a, system.memory().global_heap());
  system.RunUntil(20000);  // mid-loop: the segment's fetch entry is live

  ASSERT_FALSE(system.kernel().analyses().guard_summaries().empty());
  ObjectIndex segment = system.kernel().analyses().guard_summaries().begin()->first;
  uint64_t invalidations = system.kernel().stats().xlat_invalidations;

  // Hot-patch the segment with identical code: content is equal, but the store must still
  // bump both staleness keys and retract the old analysis through the retract hook.
  AccessDescriptor segment_ad(segment, system.machine().table().At(segment).generation,
                              rights::kRead);
  Assembler patched = AllocLoop("guards.patch", 400);
  uint64_t version = system.kernel().programs().version();
  uint32_t epoch = system.machine().table().At(segment).data_epoch;
  ASSERT_TRUE(system.kernel().programs().Replace(segment_ad, patched.Build()).ok());
  EXPECT_GT(system.kernel().programs().version(), version);
  EXPECT_GT(system.machine().table().At(segment).data_epoch, epoch);
  EXPECT_GT(system.kernel().stats().xlat_invalidations, invalidations);
  EXPECT_EQ(system.kernel().analyses().guard_summaries().count(segment), 0u);

  // The patched code runs to completion.
  system.Run();
  EXPECT_EQ(system.kernel().stats().processes_terminated, 1u);
  EXPECT_EQ(system.kernel().stats().faults_delivered, 0u);
}

// The decode cache and the guard auditor of the old engine are gone; the fetch and
// translation cache is always on. The expected value was recorded from the engine that ran
// with no cache and no auditor, so the cached engine must replay it exactly, twice.
TEST(GuardsCorpusTest, ReplayFingerprintIsBitIdenticalWithCacheAndAuditor) {
  auto run = []() {
    System system(CorpusConfig());
    system.machine().trace().Enable();
    AccessDescriptor shared = MakeShared(system, "guards.shared", 7);
    Assembler reader = DominatedReadLoop("guards.reader", 100);
    Assembler alloc = AllocLoop("guards.alloc", 60);
    Spawn(system, reader, shared);
    Spawn(system, alloc, system.memory().global_heap());
    system.Run();
    return FingerprintTrace(system.machine().trace().Snapshot());
  };
  EXPECT_EQ(run(), 0x004c7af83fba74eeull);
  EXPECT_EQ(run(), 0x004c7af83fba74eeull);
}

}  // namespace
}  // namespace imax432
