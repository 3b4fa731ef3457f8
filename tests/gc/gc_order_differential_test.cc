// GC-order differential: a seeded churn-like run whose host-visible collection outcomes are
// pinned to the values of the collector that scanned every table slot and removed SRO
// members by linear search.
//
// The collector's walks skip free table slots and SRO members carry their list position, so
// a walk that visited descriptors in another order, a sweep that missed a slot a cascade
// freed or reused, or a member removal that reordered an SRO's list would move the pinned
// values below. They were recorded by running RunChurn on that earlier collector, in a tree
// where the only change was BasicMemoryManager::FindSro, a read-only accessor.
//
// The run: two GDPs with the collector daemon, collections requested while mutators run
// (so the gray bit and the daemon's incremental batches interleave with allocation), seeded
// mutator allocation into survivor arrays plus context-local scratch objects (demoted to a
// per-context SRO when lifetime_demote is on), one host-side local-SRO bulk destroy, one
// unreferenced local SRO the sweep reclaims by cascade, and one user type whose armed
// destruction filter receives dying objects through a small port.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "src/base/xorshift.h"
#include "src/os/system.h"

namespace imax432 {
namespace {

constexpr uint32_t kSurvivors = 48;
constexpr int kMutators = 2;
constexpr int kRounds = 24;

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xFFu;
    hash *= 1099511628211ull;
  }
  return hash;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

struct ChurnOutcome {
  uint64_t reclaim_fnv = kFnvBasis;  // every reclaim-observer index, in order
  uint64_t reclaims = 0;
  GcStats stats;
  uint64_t work_units = 0;
  Cycles now = 0;
  uint64_t heap_order_fnv = kFnvBasis;  // the global heap SRO's member order at the end
  uint64_t heap_members = 0;
};

ProgramRef MutatorProgram(Xorshift& rng, uint32_t iterations) {
  Assembler a("gc-order-mutator");
  auto loop = a.NewLabel();
  auto no_wrap = a.NewLabel();
  a.MoveAd(1, kArgAdReg)
      .LoadAd(4, 1, 0)  // a4 = global heap
      .LoadAd(5, 1, 1)  // a5 = survivor array
      .LoadImm(0, 0)
      .LoadImm(1, iterations)
      .LoadImm(4, rng.NextBelow(kSurvivors))  // r4 = survivor cursor
      .LoadImm(5, kSurvivors)
      .Bind(loop)
      // A survivor: stored into the array, orphaning the previous occupant.
      .CreateObject(6, 4, static_cast<uint32_t>(rng.NextInRange(16, 256)), 1)
      .StoreData(6, 0, 0)
      .StoreAdIndexed(5, 6, 4)
      // Scratch: never stored anywhere, so the lifetime analysis proves it context-local.
      .CreateObject(2, 4, static_cast<uint32_t>(rng.NextInRange(8, 64)))
      .StoreData(2, 0, 0)
      .AddImm(4, 4, 1)
      .BranchIfLess(4, 5, no_wrap)
      .LoadImm(4, 0)
      .Bind(no_wrap)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, loop)
      .Halt();
  return a.Build();
}

ChurnOutcome RunChurn(bool demote, uint64_t seed) {
  SystemConfig config;
  config.processors = 2;
  config.machine.object_table_capacity = 6000;  // not a multiple of 64
  config.gc_units_per_step = 256;
  if (demote) {
    config.verify_on_load = true;
    config.lifetime_demote = true;
    config.lifetime_audit = true;
  }
  System system(config);
  ChurnOutcome outcome;
  system.gc().AddReclaimObserver([&outcome](ObjectIndex index, const ObjectDescriptor&) {
    outcome.reclaim_fnv = Fnv(outcome.reclaim_fnv, index);
    ++outcome.reclaims;
  });
  MemoryManager& memory = system.memory();
  AccessDescriptor heap = memory.global_heap();

  // The armed destruction filter: a user type whose dying instances go to a 3-message port.
  auto filter_port = system.kernel().ports().CreatePort(heap, 3, QueueDiscipline::kFifo);
  EXPECT_TRUE(filter_port.ok());
  auto tdo = system.types().CreateTypeDefinition(0x51ab, filter_port.value());
  EXPECT_TRUE(tdo.ok());

  std::vector<AccessDescriptor> roots = {filter_port.value(), tdo.value()};
  std::vector<AccessDescriptor> carriers;
  for (int m = 0; m < kMutators; ++m) {
    auto survivors = memory.CreateObject(heap, SystemType::kGeneric, 0, kSurvivors, rights::kAll);
    auto carrier = memory.CreateObject(heap, SystemType::kGeneric, 0, 2, rights::kAll);
    EXPECT_TRUE(survivors.ok() && carrier.ok());
    EXPECT_TRUE(system.machine().addressing().WriteAd(carrier.value(), 0, heap).ok());
    EXPECT_TRUE(
        system.machine().addressing().WriteAd(carrier.value(), 1, survivors.value()).ok());
    carriers.push_back(carrier.value());
    roots.push_back(carrier.value());
  }
  system.kernel().AddRootProvider([&roots](std::vector<AccessDescriptor>* out) {
    out->insert(out->end(), roots.begin(), roots.end());
  });

  Xorshift rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    for (int m = 0; m < kMutators; ++m) {
      ProcessOptions options;
      options.initial_arg = carriers[m];
      uint32_t iterations = static_cast<uint32_t>(rng.NextInRange(10, 40));
      EXPECT_TRUE(system.Spawn(MutatorProgram(rng, iterations), options).ok());
    }
    // Typed objects nobody keeps: the filter sees each once, the port holds only three.
    uint64_t typed = rng.NextInRange(1, 4);
    for (uint64_t t = 0; t < typed; ++t) {
      EXPECT_TRUE(system.types()
                      .CreateTypedObject(tdo.value(), heap, 24, 1, rights::kRead)
                      .ok());
    }
    if (round == 5) {
      // A local heap destroyed in bulk while holding a small object graph.
      auto local = memory.CreateLocalSro(heap, 8 * 1024, 1);
      EXPECT_TRUE(local.ok());
      AccessDescriptor previous;
      for (int i = 0; i < 12; ++i) {
        auto object = memory.CreateObject(local.value(), SystemType::kGeneric, 32, 1,
                                          rights::kAll);
        EXPECT_TRUE(object.ok());
        if (!previous.is_null()) {
          EXPECT_TRUE(system.machine().addressing().WriteAd(object.value(), 0, previous).ok());
        }
        previous = object.value();
      }
      EXPECT_TRUE(memory.DestroySro(local.value()).ok());
    }
    if (round == 9) {
      // An unreferenced local heap: the sweep reclaims it and, by cascade, its objects.
      auto orphan = memory.CreateLocalSro(heap, 4 * 1024, 1);
      EXPECT_TRUE(orphan.ok());
      for (int i = 0; i < 9; ++i) {
        EXPECT_TRUE(
            memory.CreateObject(orphan.value(), SystemType::kGeneric, 16, 0, rights::kAll).ok());
      }
    }
    // Collect alongside the mutators on most rounds.
    if (round % 3 != 2) {
      EXPECT_TRUE(system.RequestCollection().ok());
    }
    system.Run();
    // The type manager drains its filter port every other round, dropping what it got.
    if (round % 2 == 1) {
      while (system.kernel().ports().Dequeue(filter_port.value()).ok()) {
      }
    }
  }
  EXPECT_TRUE(system.RequestCollection().ok());
  system.Run();

  outcome.stats = system.gc().stats();
  outcome.work_units = system.gc().work_units();
  outcome.now = system.now();
  auto* basic = dynamic_cast<BasicMemoryManager*>(&memory);
  EXPECT_NE(basic, nullptr);
  const Sro* global = basic->FindSro(heap.index());
  EXPECT_NE(global, nullptr);
  for (ObjectIndex index : global->objects()) {
    outcome.heap_order_fnv = Fnv(outcome.heap_order_fnv, index);
  }
  outcome.heap_members = global->objects().size();
  return outcome;
}

struct Pinned {
  uint64_t reclaim_fnv;
  uint64_t reclaims;
  // GcStats, in declaration order, without descriptors_visited.
  uint64_t cycles_completed, objects_scanned, slots_scanned, objects_reclaimed,
      bytes_reclaimed, objects_finalized, sros_kept_live, filter_send_failures,
      exempt_objects_skipped;
  uint64_t work_units;
  Cycles now;
  uint64_t heap_order_fnv;
  uint64_t heap_members;
};

void ExpectPinned(const ChurnOutcome& got, const Pinned& want) {
  EXPECT_EQ(got.reclaim_fnv, want.reclaim_fnv);
  EXPECT_EQ(got.reclaims, want.reclaims);
  EXPECT_EQ(got.stats.cycles_completed, want.cycles_completed);
  EXPECT_EQ(got.stats.objects_scanned, want.objects_scanned);
  EXPECT_EQ(got.stats.slots_scanned, want.slots_scanned);
  EXPECT_EQ(got.stats.objects_reclaimed, want.objects_reclaimed);
  EXPECT_EQ(got.stats.bytes_reclaimed, want.bytes_reclaimed);
  EXPECT_EQ(got.stats.objects_finalized, want.objects_finalized);
  EXPECT_EQ(got.stats.sros_kept_live, want.sros_kept_live);
  EXPECT_EQ(got.stats.filter_send_failures, want.filter_send_failures);
  EXPECT_EQ(got.stats.exempt_objects_skipped, want.exempt_objects_skipped);
  EXPECT_EQ(got.work_units, want.work_units);
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.heap_order_fnv, want.heap_order_fnv);
  EXPECT_EQ(got.heap_members, want.heap_members);
}

// Prints an outcome in Pinned's initializer order, for re-pinning after a deliberate
// change of collection behaviour.
void PrintOutcome(const char* name, const ChurnOutcome& o) {
  const GcStats& s = o.stats;
  std::printf("%s: {0x%llxull, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
              "%llu, %llu, 0x%llxull, %llu}\n",
              name, static_cast<unsigned long long>(o.reclaim_fnv),
              static_cast<unsigned long long>(o.reclaims),
              static_cast<unsigned long long>(s.cycles_completed),
              static_cast<unsigned long long>(s.objects_scanned),
              static_cast<unsigned long long>(s.slots_scanned),
              static_cast<unsigned long long>(s.objects_reclaimed),
              static_cast<unsigned long long>(s.bytes_reclaimed),
              static_cast<unsigned long long>(s.objects_finalized),
              static_cast<unsigned long long>(s.sros_kept_live),
              static_cast<unsigned long long>(s.filter_send_failures),
              static_cast<unsigned long long>(s.exempt_objects_skipped),
              static_cast<unsigned long long>(o.work_units),
              static_cast<unsigned long long>(o.now),
              static_cast<unsigned long long>(o.heap_order_fnv),
              static_cast<unsigned long long>(o.heap_members));
}

TEST(GcOrderDifferentialTest, ChurnMatchesFullScanCollector) {
  ChurnOutcome outcome = RunChurn(/*demote=*/false, /*seed=*/432);
  EXPECT_GT(outcome.stats.objects_finalized, 0u);
  EXPECT_GT(outcome.stats.filter_send_failures, 0u);
  ExpectPinned(outcome, {0x17314ab7dab79c8bull, 2408, 17, 1983, 21935, 2408, 215548, 39, 0, 253,
                         0, 227918, 2474282, 0xb438897091b682edull, 135});
  if (HasFailure()) {
    PrintOutcome("plain", outcome);
  }
}

TEST(GcOrderDifferentialTest, ChurnWithDemotionMatchesFullScanCollector) {
  ChurnOutcome outcome = RunChurn(/*demote=*/true, /*seed=*/432);
  EXPECT_GT(outcome.stats.exempt_objects_skipped, 0u);
  ExpectPinned(outcome, {0x528fc5758d7091eeull, 1222, 17, 1922, 21950, 1222, 171916, 39, 1, 253,
                         316, 227872, 2206894, 0xaecaefd7374344e6ull, 135});
  if (HasFailure()) {
    PrintOutcome("demote", outcome);
  }
}

}  // namespace
}  // namespace imax432
