// Dynamic race sanitizer (src/analysis/races/sanitizer.h): unit tests over the vector-clock
// machinery, then kernel-level tests showing the interpreter hooks catch a real racy pair of
// processes, stay silent for a port-synchronized pair, and never perturb virtual time.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/races/sanitizer.h"
#include "src/exec/kernel.h"
#include "src/memory/basic_memory_manager.h"
#include "src/obs/trace.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

using analysis::AccessKind;
using analysis::ObjectPart;
using analysis::RaceRecord;
using analysis::RaceSanitizer;

constexpr ObjectIndex kP1 = 100;
constexpr ObjectIndex kP2 = 101;
constexpr ObjectIndex kObj = 50;

// --- Unit tests: the sanitizer driven directly. ---

TEST(RaceSanitizerUnitTest, UnorderedWritesRace) {
  RaceSanitizer san;
  EXPECT_EQ(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1), nullptr);
  const RaceRecord* race =
      san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 2);
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->object, kObj);
  EXPECT_EQ(race->part, ObjectPart::kData);
  EXPECT_EQ(race->first_process, kP1);
  EXPECT_EQ(race->first_pc, 10u);
  EXPECT_EQ(race->first_kind, AccessKind::kWrite);
  EXPECT_EQ(race->second_process, kP2);
  EXPECT_EQ(race->second_pc, 20u);
  EXPECT_EQ(race->when, 2u);
  EXPECT_EQ(san.stats().races_detected, 1u);
}

TEST(RaceSanitizerUnitTest, WriteThenUnorderedReadRaces) {
  RaceSanitizer san;
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  const RaceRecord* race =
      san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kRead, 20, 2);
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->second_kind, AccessKind::kRead);
}

TEST(RaceSanitizerUnitTest, ReadThenUnorderedWriteRaces) {
  RaceSanitizer san;
  EXPECT_EQ(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kRead, 10, 1), nullptr);
  const RaceRecord* race =
      san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 2);
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->first_kind, AccessKind::kRead);
  EXPECT_EQ(race->second_kind, AccessKind::kWrite);
}

TEST(RaceSanitizerUnitTest, ReadsNeverConflict) {
  RaceSanitizer san;
  EXPECT_EQ(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kRead, 10, 1), nullptr);
  EXPECT_EQ(san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kRead, 20, 2), nullptr);
  EXPECT_EQ(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kRead, 11, 3), nullptr);
  EXPECT_EQ(san.stats().races_detected, 0u);
  EXPECT_EQ(san.stats().accesses_checked, 3u);
}

TEST(RaceSanitizerUnitTest, SameProcessAccessesNeverRace) {
  RaceSanitizer san;
  EXPECT_EQ(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1), nullptr);
  EXPECT_EQ(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 11, 2), nullptr);
  EXPECT_EQ(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kRead, 12, 3), nullptr);
  EXPECT_EQ(san.stats().races_detected, 0u);
}

TEST(RaceSanitizerUnitTest, DataAndAccessPartsAreIndependent) {
  RaceSanitizer san;
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  EXPECT_EQ(san.OnAccess(kP2, kObj, ObjectPart::kAccess, AccessKind::kWrite, 20, 2), nullptr);
  EXPECT_EQ(san.stats().races_detected, 0u);
}

TEST(RaceSanitizerUnitTest, SendReceiveOrdersTheAccesses) {
  RaceSanitizer san;
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  san.OnSend(kP1, /*seq=*/7);
  san.OnReceive(kP2, /*seq=*/7);
  EXPECT_EQ(san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 2), nullptr);
  EXPECT_EQ(san.stats().races_detected, 0u);
  EXPECT_EQ(san.stats().messages_stamped, 1u);
  EXPECT_EQ(san.stats().joins, 1u);
}

TEST(RaceSanitizerUnitTest, WriteAfterTheSendIsNotReleased) {
  RaceSanitizer san;
  san.OnSend(kP1, /*seq=*/7);
  // This write postdates the message stamp: the receiver has no ordering claim on it.
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  san.OnReceive(kP2, /*seq=*/7);
  EXPECT_NE(san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 2), nullptr);
}

TEST(RaceSanitizerUnitTest, HandoffOrdersTheAccesses) {
  RaceSanitizer san;
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  san.OnHandoff(kP1, kP2);
  EXPECT_EQ(san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 2), nullptr);
  EXPECT_EQ(san.stats().joins, 1u);
}

TEST(RaceSanitizerUnitTest, UnknownSequenceMeansExternalMessageAndNoJoin) {
  RaceSanitizer san;
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  // A PostMessage from outside the simulation arrives with a seq the sanitizer never
  // stamped: it carries no ordering, so the conflicting pair still races.
  san.OnReceive(kP2, /*seq=*/999);
  EXPECT_EQ(san.stats().joins, 0u);
  EXPECT_NE(san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 2), nullptr);
}

TEST(RaceSanitizerUnitTest, SitePairsAreReportedOnce) {
  RaceSanitizer san;
  // Alternating writes from the same two pcs: each direction of the site pair is one
  // finding, repeats are deduplicated.
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  EXPECT_NE(san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 2), nullptr);
  EXPECT_NE(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 3), nullptr);
  EXPECT_EQ(san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 4), nullptr);
  EXPECT_EQ(san.stats().races_detected, 2u);
  EXPECT_EQ(san.stats().accesses_checked, 4u);
  EXPECT_EQ(san.races().size(), 2u);
}

TEST(RaceSanitizerUnitTest, RetirementOrdersTheIndexSuccessor) {
  RaceSanitizer san;
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  san.OnProcessRetired(kP1);
  // A new process reusing the index is created after the old one terminated, so the old
  // incarnation's accesses are ordered before everything it does: no false positive.
  EXPECT_EQ(san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 30, 5), nullptr);
  EXPECT_EQ(san.stats().races_detected, 0u);
}

TEST(RaceSanitizerUnitTest, DestroyedObjectDropsItsEpochs) {
  RaceSanitizer san;
  san.OnAccess(kP1, kObj, ObjectPart::kData, AccessKind::kWrite, 10, 1);
  san.OnAccess(kP1, kObj, ObjectPart::kAccess, AccessKind::kWrite, 11, 2);
  san.OnObjectDestroyed(kObj);
  // A fresh object reusing the index shares no history with the destroyed one.
  EXPECT_EQ(san.OnAccess(kP2, kObj, ObjectPart::kData, AccessKind::kWrite, 20, 3), nullptr);
  EXPECT_EQ(san.OnAccess(kP2, kObj, ObjectPart::kAccess, AccessKind::kWrite, 21, 4), nullptr);
  EXPECT_EQ(san.stats().races_detected, 0u);
}

// --- Kernel-level tests: the interpreter hooks on a real simulated system. ---

MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 8192;
  return config;
}

// One self-contained machine + kernel, so tests can run the same workload under different
// sanitizer settings and compare timelines.
struct Rig {
  Rig() : machine(SmallConfig()), memory(&machine), kernel(&machine, &memory) {
    EXPECT_TRUE(kernel.AddProcessors(1).ok());
  }

  AccessDescriptor MakeObject(uint32_t access_slots = 0) {
    auto object = memory.CreateObject(memory.global_heap(), SystemType::kGeneric, 64,
                                      access_slots, rights::kRead | rights::kWrite);
    EXPECT_TRUE(object.ok());
    return object.value();
  }

  AccessDescriptor MakePort() {
    auto port = kernel.ports().CreatePort(memory.global_heap(), 4, QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    return port.value();
  }

  // carrier slot 0 = the shared object, slot 1 = a port.
  AccessDescriptor MakeCarrier(const AccessDescriptor& shared, const AccessDescriptor& port) {
    AccessDescriptor carrier = MakeObject(/*access_slots=*/2);
    EXPECT_TRUE(machine.addressing().WriteAd(carrier, 0, shared).ok());
    if (!port.is_null()) {
      EXPECT_TRUE(machine.addressing().WriteAd(carrier, 1, port).ok());
    }
    return carrier;
  }

  AccessDescriptor Spawn(const Assembler& assembler, const AccessDescriptor& carrier) {
    Assembler copy = assembler;
    ProcessOptions options;
    options.initial_arg = carrier;
    auto process = kernel.CreateProcess(copy.Build(), options);
    EXPECT_TRUE(process.ok()) << FaultName(process.fault());
    EXPECT_TRUE(kernel.StartProcess(process.value()).ok());
    return process.value();
  }

  Machine machine;
  BasicMemoryManager memory;
  Kernel kernel;
};

Assembler RacyWriter(const std::string& name, uint64_t value) {
  Assembler a(name);
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadImm(0, value).StoreData(2, 0, 0).Halt();
  return a;
}

// Runs the canonical racy pair and reports the final virtual time and instruction count.
Cycles RunRacyPair(bool sanitize, uint64_t* instructions, uint64_t* races) {
  Rig rig;
  if (sanitize) rig.kernel.machine().observers().EnableRaceSanitizer();
  AccessDescriptor shared = rig.MakeObject();
  AccessDescriptor carrier = rig.MakeCarrier(shared, AccessDescriptor());
  rig.Spawn(RacyWriter("racy.w0", 1), carrier);
  rig.Spawn(RacyWriter("racy.w1", 2), carrier);
  rig.kernel.Run();
  *instructions = rig.kernel.stats().instructions_executed;
  *races = sanitize ? rig.kernel.machine().observers().race_sanitizer()->stats().races_detected : 0;
  return rig.machine.now();
}

TEST(RaceSanitizerKernelTest, RacyPairIsDetectedAtRunTime) {
  Rig rig;
  rig.machine.trace().Enable();
  rig.kernel.machine().observers().EnableRaceSanitizer();
  AccessDescriptor shared = rig.MakeObject();
  AccessDescriptor carrier = rig.MakeCarrier(shared, AccessDescriptor());
  AccessDescriptor w0 = rig.Spawn(RacyWriter("racy.w0", 1), carrier);
  AccessDescriptor w1 = rig.Spawn(RacyWriter("racy.w1", 2), carrier);
  rig.kernel.Run();

  RaceSanitizer* san = rig.kernel.machine().observers().race_sanitizer();
  ASSERT_NE(san, nullptr);
  ASSERT_FALSE(san->races().empty());
  const RaceRecord& race = san->races().front();
  EXPECT_EQ(race.object, shared.index());
  EXPECT_EQ(race.part, ObjectPart::kData);
  const ObjectIndex pair[2] = {w0.index(), w1.index()};
  EXPECT_TRUE(race.first_process == pair[0] || race.first_process == pair[1]);
  EXPECT_TRUE(race.second_process == pair[0] || race.second_process == pair[1]);
  EXPECT_NE(race.first_process, race.second_process);

  // The finding also lands on the timeline as a kRaceDetected trace event.
  bool traced = false;
  for (const TraceEvent& event : rig.machine.trace().Snapshot()) {
    if (event.kind == TraceEventKind::kRaceDetected) {
      EXPECT_EQ(event.a, shared.index());
      traced = true;
    }
  }
  EXPECT_TRUE(traced);
}

TEST(RaceSanitizerKernelTest, PortSynchronizedPairIsClean) {
  Rig rig;
  rig.kernel.machine().observers().EnableRaceSanitizer();
  AccessDescriptor shared = rig.MakeObject();
  AccessDescriptor port = rig.MakePort();
  AccessDescriptor carrier = rig.MakeCarrier(shared, port);

  Assembler writer("sync.writer");
  writer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .LoadImm(0, 7)
      .StoreData(2, 0, 0)
      .Send(3, 1)
      .Halt();
  Assembler reader("sync.reader");
  reader.MoveAd(1, kArgAdReg)
      .LoadAd(3, 1, 1)
      .Receive(4, 3)
      .LoadAd(2, 1, 0)
      .LoadData(0, 2, 0)
      .Halt();
  rig.Spawn(writer, carrier);
  rig.Spawn(reader, carrier);
  rig.kernel.Run();

  RaceSanitizer* san = rig.kernel.machine().observers().race_sanitizer();
  ASSERT_NE(san, nullptr);
  EXPECT_TRUE(san->races().empty()) << san->races().size() << " race(s)";
  EXPECT_GT(san->stats().accesses_checked, 0u);
  // The token moved: either queued (stamp + join) or handed off directly (join).
  EXPECT_GT(san->stats().joins, 0u);
}

TEST(RaceSanitizerKernelTest, SanitizerKeepsVirtualTimeBitIdentical) {
  uint64_t instructions_off = 0, instructions_on = 0, races_off = 0, races_on = 0;
  const Cycles off = RunRacyPair(false, &instructions_off, &races_off);
  const Cycles on = RunRacyPair(true, &instructions_on, &races_on);
  EXPECT_EQ(off, on);
  EXPECT_EQ(instructions_off, instructions_on);
  EXPECT_EQ(races_off, 0u);
  EXPECT_GE(races_on, 1u);  // same timeline, but the sanitizer saw the race
}

TEST(RaceSanitizerKernelTest, TerminatedProcessIndexReuseDoesNotFalsePositive) {
  Rig rig;
  rig.kernel.machine().observers().EnableRaceSanitizer();
  AccessDescriptor shared = rig.MakeObject();
  AccessDescriptor carrier = rig.MakeCarrier(shared, AccessDescriptor());

  // First writer runs to completion alone.
  rig.Spawn(RacyWriter("gen.one", 1), carrier);
  rig.kernel.Run();
  EXPECT_TRUE(rig.kernel.machine().observers().race_sanitizer()->races().empty());

  // A second generation touching the same object starts only after the first terminated,
  // so whatever process index it lands on, nothing may be reported.
  rig.Spawn(RacyWriter("gen.two", 2), carrier);
  rig.kernel.Run();
  EXPECT_TRUE(rig.kernel.machine().observers().race_sanitizer()->races().empty());
}

// Object indices are reused LIFO, so an object B allocates can land on the index of one
// that A stored into and then bulk-destroyed with its local heap. Those are two
// incarnations: the destroyed one's epochs must not survive into the new one.
// `owned_heap` picks how A's heap dies: false = destroy_sro; true = A creates it in a
// called domain's activation, which owns it, and the heap dies at that context's return.
uint64_t RunIndexReusePair(bool owned_heap) {
  Rig rig;
  EXPECT_TRUE(rig.kernel.AddProcessors(1).ok());  // A and B run side by side
  rig.kernel.machine().observers().EnableRaceSanitizer();
  const AccessDescriptor heap = rig.memory.global_heap();

  Assembler a("reuse.a");
  if (owned_heap) {
    Assembler callee("reuse.a.callee");
    callee.LoadImm(0, 1)
        .CreateSro(1, kArgAdReg, 4096)
        .CreateObject(2, 1, 64)
        .StoreData(2, 0, 0)
        .Return();  // the owned heap, and the object in it, die here
    auto segment = rig.kernel.programs().Register(callee.Build());
    EXPECT_TRUE(segment.ok());
    auto domain = rig.kernel.CreateDomain({segment.value()});
    EXPECT_TRUE(domain.ok());
    AccessDescriptor carrier = rig.MakeCarrier(heap, domain.value());
    a.LoadAd(1, kArgAdReg, 1).LoadAd(kArgAdReg, kArgAdReg, 0).Call(1, 0).Compute(200000).Halt();
    rig.Spawn(a, carrier);
  } else {
    a.LoadImm(0, 1)
        .CreateSro(1, kArgAdReg, 4096)
        .CreateObject(2, 1, 64)
        .StoreData(2, 0, 0)
        .DestroySro(1)
        .Compute(200000)
        .Halt();
    rig.Spawn(a, heap);
  }

  // B starts while A still runs, so no retirement orders A before it. It stores into every
  // object it allocates, whichever freed index each lands on.
  Assembler b("reuse.b");
  b.Compute(100000)
      .LoadImm(0, 2)
      .CreateSro(1, kArgAdReg, 4096)
      .CreateObject(2, 1, 64)
      .CreateObject(3, 1, 64)
      .StoreData(2, 0, 0)
      .StoreData(3, 0, 0)
      .Halt();
  rig.Spawn(b, heap);
  rig.kernel.Run();
  EXPECT_EQ(rig.kernel.stats().processes_terminated, 2u);
  return rig.kernel.machine().observers().race_sanitizer()->stats().races_detected;
}

TEST(RaceSanitizerKernelTest, DestroySroMemberIndexReuseDoesNotFalsePositive) {
  EXPECT_EQ(RunIndexReusePair(/*owned_heap=*/false), 0u);
}

TEST(RaceSanitizerKernelTest, OwnedHeapDyingAtReturnDoesNotFalsePositive) {
  EXPECT_EQ(RunIndexReusePair(/*owned_heap=*/true), 0u);
}

}  // namespace
}  // namespace imax432
