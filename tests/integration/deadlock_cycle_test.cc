// Ground truth for the static deadlock detector: a real 3-process receive ring is both
// flagged by ProgramAnalyses::AnalyzeSystem() *and* actually deadlocks when run — every
// process ends blocked at its port with the simulation idle. The clean counterpart (same
// topology, but a message primed into the ring) is neither flagged nor stuck.

#include <gtest/gtest.h>

#include <string>

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

class DeadlockCycleTest : public ::testing::Test {
 protected:
  DeadlockCycleTest() : machine_(SmallConfig()), memory_(&machine_), kernel_(&machine_, &memory_) {
    EXPECT_TRUE(kernel_.AddProcessors(1).ok());
  }

  AccessDescriptor MakePort(const std::string& name) {
    auto port = kernel_.ports().CreatePort(memory_.global_heap(), 4, QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    kernel_.analyses().symbols().Name(port.value().index(), name);
    return port.value();
  }

  // carrier slot 0 = receive-from port, slot 1 = send-to port.
  AccessDescriptor MakeCarrier(const AccessDescriptor& recv, const AccessDescriptor& send) {
    auto carrier = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 2,
                                        rights::kRead | rights::kWrite);
    EXPECT_TRUE(carrier.ok());
    EXPECT_TRUE(machine_.addressing().WriteAd(carrier.value(), 0, recv).ok());
    EXPECT_TRUE(machine_.addressing().WriteAd(carrier.value(), 1, send).ok());
    return carrier.value();
  }

  // Receives once from its own port, forwards the message to the next member, halts.
  AccessDescriptor SpawnRingMember(int i, const AccessDescriptor& own,
                                   const AccessDescriptor& next) {
    Assembler a("ring.p" + std::to_string(i));
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .Receive(4, 2)
        .Send(3, 4)
        .Halt();
    ProcessOptions options;
    options.initial_arg = MakeCarrier(own, next);
    auto process = kernel_.CreateProcess(a.Build(), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    EXPECT_TRUE(kernel_.StartProcess(process.value()).ok());
    return process.value();
  }

  Machine machine_;
  BasicMemoryManager memory_;
  Kernel kernel_;
};

TEST_F(DeadlockCycleTest, StaticDetectorFlagsTheRingAndTheRingReallyDeadlocks) {
  AccessDescriptor ports[3] = {MakePort("ring.0"), MakePort("ring.1"), MakePort("ring.2")};
  AccessDescriptor procs[3];
  for (int i = 0; i < 3; ++i) procs[i] = SpawnRingMember(i, ports[i], ports[(i + 1) % 3]);

  // Static verdict first, before a single instruction executes.
  analysis::SystemAnalysisReport report = kernel_.analyses().AnalyzeSystem();
  ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatReport(report);
  const analysis::SystemDiagnostic& diagnostic = report.diagnostics[0];
  EXPECT_EQ(diagnostic.rule, analysis::SystemRule::kDeadlockCycle);
  EXPECT_EQ(diagnostic.programs.size(), 3u);
  EXPECT_EQ(diagnostic.ports.size(), 3u);
  EXPECT_NE(diagnostic.message.find("'ring.0'"), std::string::npos) << diagnostic.message;

  // Dynamic ground truth: the simulation drains to idle with every member still blocked.
  kernel_.Run();
  for (const AccessDescriptor& process : procs) {
    EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kBlocked)
        << analysis::FormatReport(report);
  }
}

TEST_F(DeadlockCycleTest, PrimedRingIsCleanAndRunsToCompletion) {
  AccessDescriptor ports[3] = {MakePort("ring.0"), MakePort("ring.1"), MakePort("ring.2")};
  AccessDescriptor procs[3];
  for (int i = 0; i < 3; ++i) procs[i] = SpawnRingMember(i, ports[i], ports[(i + 1) % 3]);

  // A token primed into the ring from outside: PostMessage both unblocks the ring at run
  // time and marks ring.0 externally fed, so the static cycle claim must not fire.
  auto token = memory_.CreateObject(memory_.global_heap(), SystemType::kGeneric, 16, 0,
                                    rights::kRead | rights::kWrite);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(kernel_.PostMessage(ports[0], token.value()).ok());

  analysis::SystemAnalysisReport report = kernel_.analyses().AnalyzeSystem();
  EXPECT_TRUE(report.ok()) << analysis::FormatReport(report);

  kernel_.Run();
  for (const AccessDescriptor& process : procs) {
    EXPECT_EQ(kernel_.process_view(process).state(), ProcessState::kTerminated);
  }
}

}  // namespace
}  // namespace imax432
