// ProgramAnalyses::AnalyzeSystem and the IPC effect summaries kept for every program the
// kernel loads (src/analysis/program_analyses.h over effects.h + deadlock.h).

#include <gtest/gtest.h>

#include "src/analysis/deadlock.h"
#include "src/analysis/program_analyses.h"
#include "src/exec/kernel.h"
#include "src/memory/basic_memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 8192;
  return config;
}

class AnalyzeSystemTest : public ::testing::Test {
 protected:
  AnalyzeSystemTest() : machine_(SmallConfig()), memory_(&machine_), kernel_(&machine_, &memory_) {
    EXPECT_TRUE(kernel_.AddProcessors(1).ok());
  }

  AccessDescriptor MakePort(const char* name) {
    auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    kernel_.analyses().symbols().Name(port.value().index(), name);
    return port.value();
  }

  AccessDescriptor SpawnReceiver(const AccessDescriptor& port) {
    Assembler a("receiver");
    a.MoveAd(1, kArgAdReg).Receive(2, 1).Halt();
    ProcessOptions options;
    options.initial_arg = port;
    auto process = kernel_.CreateProcess(a.Build(), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    return process.ok() ? process.value() : AccessDescriptor();
  }

  // A domain entry that sends through its caller's argument, beside a lone receiver. Nothing
  // calls the domain, so the entry's send can feed no port.
  analysis::SystemAnalysisReport AnalyzeDomainEntryBesideLoneReceiver() {
    Assembler entry("relay_entry");
    entry.Send(kArgAdReg, kArgAdReg).ClearAd(kArgAdReg).Return();
    auto segment = kernel_.programs().Register(entry.Build());
    EXPECT_TRUE(segment.ok());
    auto domain = kernel_.CreateDomain({segment.value()});
    EXPECT_TRUE(domain.ok()) << FaultName(domain.fault());
    SpawnReceiver(MakePort("inbox"));
    return kernel_.analyses().AnalyzeSystem();
  }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
};

TEST_F(AnalyzeSystemTest, VerifyOnLoadRecordsSummariesIncrementally) {
  kernel_.set_verify_on_load(true);
  EXPECT_EQ(kernel_.stats().effect_summaries, 0u);
  Assembler a("trivial");
  a.Halt();
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), {}).ok());
  EXPECT_EQ(kernel_.stats().effect_summaries, 1u);
  EXPECT_EQ(kernel_.analyses().effect_graph().program_count(), 1u);
  // AnalyzeSystem finds the summary already on file and does not recompute it.
  (void)kernel_.analyses().AnalyzeSystem();
  EXPECT_EQ(kernel_.stats().effect_summaries, 1u);
}

TEST_F(AnalyzeSystemTest, AnalyzeSystemLazilySummarizesUnverifiedPrograms) {
  Assembler a("trivial");
  a.Halt();
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), {}).ok());
  EXPECT_EQ(kernel_.analyses().effect_graph().program_count(), 0u);  // verify-on-load is off
  analysis::SystemAnalysisReport report = kernel_.analyses().AnalyzeSystem();
  EXPECT_EQ(kernel_.stats().effect_summaries, 1u);
  EXPECT_GE(report.programs_analyzed, 1u);
}

TEST_F(AnalyzeSystemTest, LoneReceiverIsReportedStarved) {
  AccessDescriptor port = MakePort("inbox");
  SpawnReceiver(port);
  analysis::SystemAnalysisReport report = kernel_.analyses().AnalyzeSystem();
  ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].rule, analysis::SystemRule::kStarvedPort);
  // The symbol table name reaches the diagnostic text.
  EXPECT_NE(report.diagnostics[0].message.find("'inbox'"), std::string::npos)
      << report.diagnostics[0].message;
}

TEST_F(AnalyzeSystemTest, PostMessageMarksThePortExternallyFed) {
  AccessDescriptor port = MakePort("inbox");
  SpawnReceiver(port);
  ASSERT_FALSE(kernel_.analyses().AnalyzeSystem().ok());
  // Outside traffic (a device, a test harness) exists: the starvation claim must retract.
  auto message = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 0,
                                      rights::kRead | rights::kWrite);
  ASSERT_TRUE(message.ok());
  ASSERT_TRUE(kernel_.PostMessage(port, message.value()).ok());
  EXPECT_TRUE(kernel_.analyses().AnalyzeSystem().ok());
}

TEST_F(AnalyzeSystemTest, FaultPortIsAKernelSideSender) {
  AccessDescriptor port = MakePort("faults");
  // A supervisor blocks receiving faulted processes. Nothing in the program set ever sends
  // to the port — the kernel does, so no starvation diagnostic may appear.
  SpawnReceiver(port);
  Assembler a("worker");
  a.Halt();
  ProcessOptions options;
  options.fault_port = port;
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), options).ok());
  EXPECT_TRUE(kernel_.analyses().AnalyzeSystem().ok());
}

TEST_F(AnalyzeSystemTest, SchedulerPortIsAKernelSideSender) {
  AccessDescriptor port = MakePort("events");
  SpawnReceiver(port);
  Assembler a("worker");
  a.Halt();
  ProcessOptions options;
  options.scheduler_port = port;
  ASSERT_TRUE(kernel_.CreateProcess(a.Build(), options).ok());
  EXPECT_TRUE(kernel_.analyses().AnalyzeSystem().ok());
}

// A domain entry contributes only through its callers, whether it was summarized at load or
// on the first analysis. Taken for a process, its unresolved send would count as a possible
// sender to every port and hide the starved one.
TEST_F(AnalyzeSystemTest, DomainEntryIsNoSenderWithVerifyOnLoad) {
  kernel_.set_verify_on_load(true);
  analysis::SystemAnalysisReport report = AnalyzeDomainEntryBesideLoneReceiver();
  ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].rule, analysis::SystemRule::kStarvedPort);
  EXPECT_EQ(report.unresolved_send_programs, 0u);
}

TEST_F(AnalyzeSystemTest, DomainEntryIsNoSenderWithoutVerifyOnLoad) {
  analysis::SystemAnalysisReport report = AnalyzeDomainEntryBesideLoneReceiver();
  ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].rule, analysis::SystemRule::kStarvedPort);
  EXPECT_EQ(report.unresolved_send_programs, 0u);
}

}  // namespace
}  // namespace imax432
