// Ground truth for the interference analysis: a pair it claims independent runs to
// completion, a shared-write pair it reports really conflicts, mutation after certification
// retracts the immutability certificate, a booted system with its opaque daemon analyzes
// clean, and the corpus replays to the trace fingerprint of the uncached engine.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/interference/interference.h"
#include "src/analysis/program_analyses.h"
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

SystemConfig CorpusConfig() {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 1;
  config.start_gc_daemon = false;  // the daemon's native steps would caveat every certificate
  return config;
}

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

// Sums the shared object into a private total `iters` times (read-only workload).
Assembler ReadLoop(const std::string& name, uint32_t iters) {
  Assembler a(name);
  auto loop = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadImm(0, 0)
      .LoadImm(4, iters)
      .LoadImm(3, 0)
      .Bind(loop)
      .LoadData(2, 1, 0, 8)
      .Add(3, 3, 2)
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

TEST(InterferenceCorpusTest, DisjointFootprintPairIsIndependentAndRunsClean) {
  System system(CorpusConfig());
  AccessDescriptor left = MakeShared(system, "corpus.left", 1);
  AccessDescriptor right = MakeShared(system, "corpus.right", 2);
  Assembler a = ReadLoop("corpus.a", 20);
  Assembler b = ReadLoop("corpus.b", 20);
  Spawn(system, a, left);
  Spawn(system, b, right);

  analysis::InterferenceAnalysisReport report = system.kernel().analyses().AnalyzeInterference();
  EXPECT_TRUE(report.ok()) << analysis::FormatInterferenceReport(report);
  EXPECT_EQ(report.pairs_independent, 1u);
  EXPECT_EQ(report.pairs_interfering, 0u);

  system.Run();
  EXPECT_EQ(system.kernel().stats().processes_terminated, 2u);
  EXPECT_EQ(system.kernel().stats().faults_delivered, 0u);
}

TEST(InterferenceCorpusTest, SharedWritePairIsReportedWithNamedWitness) {
  System system(CorpusConfig());
  AccessDescriptor shared = MakeShared(system, "corpus.cell");
  Assembler w0 = WriteOnce("corpus.w0", 1);
  Assembler w1 = WriteOnce("corpus.w1", 2);
  Spawn(system, w0, shared);
  Spawn(system, w1, shared);

  analysis::InterferenceAnalysisReport report = system.kernel().analyses().AnalyzeInterference();
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.pairs_interfering, 1u);
  bool found = false;
  for (const analysis::InterferenceVerdict& verdict : report.verdicts) {
    if (verdict.verdict != analysis::PairVerdict::kInterfering) continue;
    found = true;
    ASSERT_EQ(verdict.shared.size(), 1u);
    EXPECT_EQ(verdict.shared[0], shared.index());
    EXPECT_NE(verdict.message.find("corpus.cell"), std::string::npos) << verdict.message;
  }
  EXPECT_TRUE(found);
  system.Run();
}

TEST(InterferenceCorpusTest, MutationAfterCertificationRetractsTheCertificate) {
  System system(CorpusConfig());
  AccessDescriptor shared = MakeShared(system, "corpus.retract", 5);
  Assembler reader = ReadLoop("corpus.reader", 50);
  Spawn(system, reader, shared);

  analysis::InterferenceAnalysisReport before = system.kernel().analyses().AnalyzeInterference();
  ASSERT_EQ(before.certified_immutable, 1u);

  // A writer entering the system retracts immutability.
  Assembler writer = WriteOnce("corpus.writer", 9);
  Spawn(system, writer, shared);

  analysis::InterferenceAnalysisReport after = system.kernel().analyses().AnalyzeInterference();
  const analysis::CacheCertificate* cert = nullptr;
  for (const analysis::CacheCertificate& c : after.certificates) {
    if (c.object == shared.index() && c.part == analysis::ObjectPart::kData) cert = &c;
  }
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->grade, analysis::CacheGrade::kMutable);
  system.Run();
}

TEST(InterferenceCorpusTest, BootedSystemAnalyzesCleanWithTheDaemonRunning) {
  SystemConfig config;
  config.machine = SmallConfig();
  config.processors = 2;
  System system(config);  // GC daemon on: an opaque resident program in the mix

  analysis::InterferenceAnalysisReport report = system.kernel().analyses().AnalyzeInterference();
  EXPECT_TRUE(report.ok()) << analysis::FormatInterferenceReport(report);

  system.RunUntil(200000);
  EXPECT_EQ(system.kernel().stats().panics, 0u);
}

// The interference auditor of the old engine is gone; the translation cache is always on.
// The expected value was recorded from the engine that ran with no cache and no auditor, so
// the cached engine must replay it exactly, twice.
TEST(InterferenceCorpusTest, ReplayFingerprintIsBitIdenticalWithCacheAndAuditor) {
  auto run = []() {
    System system(CorpusConfig());
    system.machine().trace().Enable();
    AccessDescriptor left = MakeShared(system, "corpus.left", 1);
    AccessDescriptor right = MakeShared(system, "corpus.right", 2);
    Assembler a = ReadLoop("corpus.a", 100);
    Assembler b("corpus.b");
    auto loop = b.NewLabel();
    b.MoveAd(1, kArgAdReg)
        .LoadImm(0, 0)
        .LoadImm(3, 60)
        .Bind(loop)
        .LoadData(2, 1, 0, 8)
        .AddImm(2, 2, 1)
        .StoreData(1, 2, 0, 8)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 3, loop)
        .Halt();
    Spawn(system, a, left);
    Spawn(system, b, right);
    system.Run();
    return FingerprintTrace(system.machine().trace().Snapshot());
  };
  EXPECT_EQ(run(), 0x356fd3ba178cb0feull);
  EXPECT_EQ(run(), 0x356fd3ba178cb0feull);
}

}  // namespace
}  // namespace imax432
