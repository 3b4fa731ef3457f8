// The observer bus's one zero-virtual-cycle contract: whatever observers are armed, the
// simulated run is the same. The per-observer purity tests (profiler, spans, sanitizer,
// auditor) stay; this one checks them all at once, at the bus.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/races/sanitizer.h"
#include "src/isa/assembler.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/os/system.h"

namespace imax432 {
namespace {

enum class Armed { kNothing, kTrace, kEverything };

// The imax_trace pipeline workload: a source allocates and fills 16 items and sends each
// down four forwarding stages into a sink port.
std::unique_ptr<System> RunPipeline(Armed armed) {
  constexpr int kStages = 4;
  constexpr uint64_t kItems = 16;
  SystemConfig config;
  config.processors = 2;
  config.machine.memory_bytes = 8 * 1024 * 1024;
  config.trace = armed != Armed::kNothing;
  if (armed == Armed::kEverything) {
    config.profile = true;
    config.span_trace = true;
    config.race_sanitize = true;
    config.lifetime_audit = true;
  }
  auto system = std::make_unique<System>(config);
  AccessDescriptor heap = system->memory().global_heap();

  std::vector<AccessDescriptor> ports;
  for (int i = 0; i <= kStages; ++i) {
    const uint16_t capacity = i == kStages ? static_cast<uint16_t>(kItems) : 2;
    auto port = system->kernel().ports().CreatePort(heap, capacity, QueueDiscipline::kFifo);
    EXPECT_TRUE(port.ok());
    ports.push_back(port.value());
  }
  system->kernel().AddRootProvider([ports](std::vector<AccessDescriptor>* roots) {
    roots->insert(roots->end(), ports.begin(), ports.end());
  });
  auto carrier = system->memory().CreateObject(heap, SystemType::kGeneric, 8, kStages + 2,
                                               rights::kRead | rights::kWrite);
  EXPECT_TRUE(carrier.ok());
  for (int i = 0; i <= kStages; ++i) {
    EXPECT_TRUE(system->machine()
                    .addressing()
                    .WriteAd(carrier.value(), static_cast<uint32_t>(i), ports[i])
                    .ok());
  }
  EXPECT_TRUE(system->machine().addressing().WriteAd(carrier.value(), kStages + 1, heap).ok());

  ProcessOptions options;
  options.initial_arg = carrier.value();
  for (int stage = 0; stage < kStages; ++stage) {
    Assembler a("stage");
    auto loop = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, static_cast<uint32_t>(stage))
        .LoadAd(3, 1, static_cast<uint32_t>(stage + 1))
        .LoadImm(0, 0)
        .LoadImm(1, kItems)
        .Bind(loop)
        .Receive(4, 2)
        .Compute(4000)
        .Send(3, 4)
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    EXPECT_TRUE(system->Spawn(a.Build(), options).ok());
  }
  Assembler source("source");
  auto loop = source.NewLabel();
  source.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, kStages + 1)
      .LoadImm(0, 0)
      .LoadImm(1, kItems)
      .Bind(loop)
      .CreateObject(4, 3, 64)
      .StoreData(4, 0, 0, 8)
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  EXPECT_TRUE(system->Spawn(source.Build(), options).ok());
  system->Run();
  return system;
}

TEST(ObserverBusTest, ArmedObserversNeverChangeTheRun) {
  auto plain = RunPipeline(Armed::kNothing);
  auto traced = RunPipeline(Armed::kTrace);
  auto observed = RunPipeline(Armed::kEverything);

  EXPECT_GT(plain->now(), 0u);
  EXPECT_EQ(traced->now(), plain->now());
  EXPECT_EQ(observed->now(), plain->now());
  const CounterMap stats = CountersFor(plain->kernel().stats());
  EXPECT_EQ(CountersFor(traced->kernel().stats()), stats);
  EXPECT_EQ(CountersFor(observed->kernel().stats()), stats);
  EXPECT_EQ(plain->kernel().stats().processes_terminated, 5u);

  // The ring records the same transitions whatever else listens on the bus.
  EXPECT_GT(traced->machine().trace().size(), 0u);
  EXPECT_EQ(traced->machine().trace().dropped(), 0u);
  EXPECT_EQ(TraceFingerprint(observed->machine().trace().Snapshot()),
            TraceFingerprint(traced->machine().trace().Snapshot()));

  // Every armed observer heard the run.
  Machine& machine = observed->machine();
  machine.profiler().FlushOpenIntervals(machine.now());
  EXPECT_EQ(machine.profiler().CpuTotal(0), machine.now());
  EXPECT_GT(machine.spans().spans_created(), 0u);
  const analysis::RaceSanitizer* sanitizer = machine.observers().race_sanitizer();
  ASSERT_NE(sanitizer, nullptr);
  EXPECT_GT(sanitizer->stats().accesses_checked, 0u);
  EXPECT_GT(sanitizer->stats().joins, 0u);
  EXPECT_TRUE(sanitizer->races().empty());
  EXPECT_NE(observed->machine().observers().lifetime_auditor(), nullptr);
}

}  // namespace
}  // namespace imax432
