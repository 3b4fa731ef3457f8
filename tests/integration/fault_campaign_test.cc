// End-to-end fault-injection campaigns: the acceptance contract of the injection harness.
// Same {seed, schedule} => bit-identical replay (virtual end time and full trace
// fingerprint), and every injected fault ends in documented recovery or a policy-driven
// termination — never a kernel panic.

#include <gtest/gtest.h>

#include "src/memory/swapping_memory_manager.h"
#include "src/obs/trace.h"
#include "src/os/fault_service.h"
#include "src/os/system.h"
#include "src/sim/fault_injector.h"

namespace imax432 {
namespace {

struct CampaignOutcome {
  Cycles end = 0;
  uint64_t fingerprint = 0;
  uint64_t panics = 0;
  uint64_t injections = 0;
  uint64_t faults_delivered = 0;
  uint64_t quarantined = 0;
  uint64_t terminated_by_policy = 0;
};

// A compact version of the imax_trace --inject campaign: swapping storage under pressure,
// service-level workers wired to a recovery-policy fault service, the patrol daemon armed,
// and a seeded schedule of every injection kind.
CampaignOutcome RunCampaign(uint64_t seed, uint32_t count, Cycles horizon) {
  SystemConfig config;
  config.processors = 2;
  config.machine.memory_bytes = 192 * 1024;
  config.machine.object_table_capacity = 4096;
  config.memory_manager = MemoryManagerKind::kSwapping;
  config.trace = true;
  config.start_patrol_daemon = true;
  System system(config);

  FaultService service(&system.kernel(), FaultService::MakeRecoveryPolicy());
  auto fault_port = service.Spawn();
  EXPECT_TRUE(fault_port.ok());

  FaultInjector injector(&system.kernel(),
                         static_cast<SwappingMemoryManager*>(&system.memory()));
  injector.Arm(FaultInjector::GenerateSchedule(seed, count, horizon));

  // Three churn workers: each allocates 4 KB objects in a loop (swap pressure), re-reads
  // the previous one (swap-ins; walks into quarantined objects), and computes. Services
  // level + fault port: injected faults are delivered and recovered, never panicked.
  for (int w = 0; w < 3; ++w) {
    auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                                SystemType::kGeneric, 8, 2,
                                                rights::kRead | rights::kWrite);
    EXPECT_TRUE(carrier.ok());
    EXPECT_TRUE(system.machine()
                    .addressing()
                    .WriteAd(carrier.value(), 0, system.memory().global_heap())
                    .ok());
    Assembler a("churn");
    a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0);
    auto loop = a.NewLabel();
    a.LoadImm(0, 0).LoadImm(1, 40).Bind(loop);
    a.CreateObject(3, 2, 4 * 1024);
    a.StoreData(3, 0, 0, 8);
    a.StoreAd(1, 3, 1);  // keep the newest object reachable via the carrier
    a.LoadAd(4, 1, 1);   // ... and re-read it (possible swap-in / quarantine)
    a.LoadData(5, 4, 0, 8);
    a.Compute(400);
    a.AddImm(0, 0, 1).BranchIfLess(0, 1, loop);
    a.Halt();
    ProcessOptions options;
    options.initial_arg = carrier.value();
    options.imax_level = kImaxLevelServices;
    options.fault_port = fault_port.value();
    EXPECT_TRUE(system.Spawn(a.Build(), options).ok());
  }

  // Patrol sweeps on a timer so injected corruption is found during the campaign.
  for (Cycles t = horizon / 4; t <= horizon; t += horizon / 4) {
    System* sys = &system;
    system.machine().events().ScheduleAt(t, [sys] { (void)sys->RequestPatrolSweep(); });
  }

  system.Run();
  system.patrol().SweepNow();  // final host-side scan: nothing corrupt may survive unseen

  CampaignOutcome outcome;
  outcome.end = system.now();
  outcome.fingerprint = TraceFingerprint(system.machine().trace().Snapshot());
  outcome.panics = system.kernel().stats().panics;
  outcome.injections = injector.stats().fired;
  outcome.faults_delivered = system.kernel().stats().faults_delivered;
  outcome.quarantined = system.patrol().stats().objects_quarantined;
  outcome.terminated_by_policy = service.stats().terminated;
  return outcome;
}

TEST(FaultCampaignTest, ReplayIsBitIdentical) {
  CampaignOutcome first = RunCampaign(432, 24, 600'000);
  CampaignOutcome second = RunCampaign(432, 24, 600'000);
  EXPECT_EQ(first.end, second.end);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.injections, second.injections);
  EXPECT_EQ(first.quarantined, second.quarantined);
}

TEST(FaultCampaignTest, DifferentSeedsProduceDifferentTimelines) {
  CampaignOutcome a = RunCampaign(1, 24, 600'000);
  CampaignOutcome b = RunCampaign(2, 24, 600'000);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(FaultCampaignTest, EveryInjectedFaultEndsInRecoveryNeverPanic) {
  // A handful of seeds, each mixing all eight injection kinds against live workers. The
  // invariant under test: injections land (fired > 0) and the kernel never panics — every
  // fault either recovers (retry, requeue, re-baseline) or terminates by policy.
  for (uint64_t seed : {3ull, 17ull, 20260805ull}) {
    CampaignOutcome outcome = RunCampaign(seed, 24, 600'000);
    EXPECT_GT(outcome.injections, 0u) << "seed " << seed;
    EXPECT_EQ(outcome.panics, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace imax432
