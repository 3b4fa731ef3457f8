// Static <-> dynamic ground-truth corpus for the lifetime analysis: every program the
// static pass calls demotable must run violation-free under the dynamic auditor (the
// zero-false-positive contract), and programs whose allocations escape must never be
// demoted at all. Each case boots a full System (GC daemon included) with verify_on_load +
// lifetime_demote + lifetime_audit.

#include <gtest/gtest.h>

#include <functional>

#include "src/analysis/program_analyses.h"
#include "src/os/system.h"

namespace imax432 {
namespace {

struct CorpusCase {
  const char* name;
  std::function<ProgramRef()> build;
  uint64_t expected_demotions;
};

// Programs address a carrier in a7: slot 0 = allocation SRO (the global heap).
ProgramRef LocalSingle() {
  Assembler a("local-single");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).CreateObject(4, 2, 16).Halt();
  return a.Build();
}

ProgramRef LocalLoop() {
  Assembler a("local-loop");
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, 12)
      .Bind(loop)
      .CreateObject(4, 2, 32)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  return a.Build();
}

ProgramRef SiblingGraph() {
  // Two local objects referencing each other: both demotable, both in one demote SRO.
  Assembler a("sibling-graph");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .CreateObject(4, 2, 0, 2)
      .CreateObject(5, 2, 0, 2)
      .StoreAd(4, 5, 0)
      .StoreAd(5, 4, 0)
      .Halt();
  return a.Build();
}

ProgramRef EscapeByStore() {
  Assembler a("escape-store");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).CreateObject(4, 2, 16).StoreAd(1, 4, 1).Halt();
  return a.Build();
}

ProgramRef EscapeBySend() {
  // Carrier slot 1 holds a port; the allocated object ships through it.
  Assembler a("escape-send");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .CreateObject(4, 2, 16)
      .CondSend(3, 4, 0)
      .Halt();
  return a.Build();
}

ProgramRef ExplicitDestroy() {
  Assembler a("explicit-destroy");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).CreateObject(4, 2, 16).DestroyObject(4).Halt();
  return a.Build();
}

ProgramRef Mixed() {
  // One local, one escaping: exactly one demotion.
  Assembler a("mixed");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .CreateObject(4, 2, 16)
      .CreateObject(5, 2, 16)
      .StoreAd(1, 5, 1)
      .Halt();
  return a.Build();
}

ProgramRef LocalHeapSite() {
  // Allocating from a program-created local SRO still demotes: the demote SRO's reclaim at
  // context exit is never later than the owned SRO's.
  Assembler a("local-heap-site");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .CreateSro(3, 2, 4096)
      .CreateObject(4, 3, 16)
      .Halt();
  return a.Build();
}

class LifetimeCorpusTest : public ::testing::Test {
 protected:
  static SystemConfig Config() {
    SystemConfig config;
    config.machine.memory_bytes = 4 * 1024 * 1024;
    config.machine.object_table_capacity = 8192;
    config.processors = 1;
    config.verify_on_load = true;
    config.lifetime_demote = true;
    config.lifetime_audit = true;
    return config;
  }

  // Runs one corpus program to termination; returns the kernel stats afterwards.
  static KernelStats RunCase(const CorpusCase& test_case) {
    System system(Config());
    auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                                SystemType::kGeneric, 8, 2, rights::kAll);
    EXPECT_TRUE(carrier.ok());
    auto port = system.kernel().ports().CreatePort(system.memory().global_heap(), 8,
                                                   QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    AddressingUnit& au = system.machine().addressing();
    EXPECT_TRUE(au.WriteAd(carrier.value(), 0, system.memory().global_heap()).ok());
    EXPECT_TRUE(au.WriteAd(carrier.value(), 1, port.value()).ok());

    ProcessOptions options;
    options.initial_arg = carrier.value();
    auto process = system.Spawn(test_case.build(), options);
    EXPECT_TRUE(process.ok()) << test_case.name << ": " << FaultName(process.fault());
    system.Run();
    EXPECT_EQ(system.kernel().process_view(process.value()).state(),
              ProcessState::kTerminated)
        << test_case.name;
    return system.kernel().stats();
  }
};

TEST_F(LifetimeCorpusTest, StaticVerdictsMatchDynamicGroundTruth) {
  const CorpusCase kCorpus[] = {
      {"local-single", LocalSingle, 1},
      {"local-loop", LocalLoop, 12},
      {"sibling-graph", SiblingGraph, 2},
      {"escape-store", EscapeByStore, 0},
      {"escape-send", EscapeBySend, 0},
      {"explicit-destroy", ExplicitDestroy, 0},
      {"mixed", Mixed, 1},
      {"local-heap-site", LocalHeapSite, 1},
  };
  for (const CorpusCase& test_case : kCorpus) {
    KernelStats stats = RunCase(test_case);
    EXPECT_EQ(stats.demotions, test_case.expected_demotions) << test_case.name;
    // The contract that makes demotion safe to ship: zero audit violations, ever.
    EXPECT_EQ(stats.lifetime_violations, 0u) << test_case.name;
    EXPECT_EQ(stats.demoted_bulk_reclaimed, test_case.expected_demotions) << test_case.name;
  }
}

TEST_F(LifetimeCorpusTest, CollectionInterleavedWithDemotionsStaysClean) {
  // A GC cycle racing the mutator in virtual time must neither sweep a demoted object nor
  // trip the auditor: exempt objects stay black through whiten/mark/sweep. Once the
  // process terminates its object is garbage to the collector, so recovery must be on for
  // the post-run state inspection to have something to read.
  SystemConfig config = Config();
  config.recover_lost_processes = true;
  System system(config);
  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 8, 1, rights::kAll);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(system.machine()
                  .addressing()
                  .WriteAd(carrier.value(), 0, system.memory().global_heap())
                  .ok());
  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto process = system.Spawn(LocalLoop(), options);
  ASSERT_TRUE(process.ok());
  ASSERT_TRUE(system.RequestCollection().ok());
  system.Run();
  EXPECT_EQ(system.kernel().process_view(process.value()).state(),
            ProcessState::kTerminated);
  EXPECT_EQ(system.kernel().stats().demotions, 12u);
  EXPECT_EQ(system.kernel().stats().lifetime_violations, 0u);
  EXPECT_GE(system.gc().stats().cycles_completed, 1u);
}

TEST_F(LifetimeCorpusTest, BootedSystemLifetimeReportIsClean) {
  // The GC daemon is native code: whole-system opacity suppresses every leak / anomaly
  // claim, so a healthy booted system reports clean rather than speculating.
  System system(Config());
  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 8, 2, rights::kAll);
  ASSERT_TRUE(carrier.ok());
  ASSERT_TRUE(system.machine()
                  .addressing()
                  .WriteAd(carrier.value(), 0, system.memory().global_heap())
                  .ok());
  ProcessOptions options;
  options.initial_arg = carrier.value();
  auto process = system.Spawn(EscapeByStore(), options);
  ASSERT_TRUE(process.ok());
  system.Run();
  analysis::LifetimeAnalysisReport report = system.kernel().analyses().AnalyzeLifetimes();
  EXPECT_TRUE(report.ok()) << analysis::FormatLifetimeReport(report);
  EXPECT_GE(report.opaque_programs, 1u);
  EXPECT_GE(report.leaks_suppressed, 1u);
}

}  // namespace
}  // namespace imax432
