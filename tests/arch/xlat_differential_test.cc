// Lockstep differential of the cached addressing paths against an uncached reference.
//
// Two identical machines replay the same seeded xorshift sequence of operations. One side
// runs the real AddressingUnit with a bound 64-entry translation cache and fetches programs
// through ProgramStore::FetchCached. The other side runs ReferenceAu below, an executable
// model of the 432's translation and protection checks that resolves every access through
// ObjectTable::Resolve, and fetches through the uncached ProgramStore::Fetch. The sequence
// mixes data and access-part reads and writes, counter read-modify-writes (AddData, whose
// reference is a read then a write), rights restriction, out-of-bounds offsets and
// slots, invalid widths, the level rule, free-and-reallocate of the same table slot (stale
// generations), quarantine, swap-out, and program Register / Replace / Forget. Every result
// and every fault must agree, and so must the object state both sides leave behind.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/arch/addressing_unit.h"
#include "src/arch/object_descriptor.h"
#include "src/arch/rights.h"
#include "src/base/xorshift.h"
#include "src/isa/assembler.h"
#include "src/isa/program_store.h"
#include "src/memory/basic_memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {
namespace {

// The reference: every access resolves through ObjectTable::Resolve, then applies the
// architectural checks in the order addressing_unit.h documents them.
class ReferenceAu {
 public:
  ReferenceAu(ObjectTable* table, PhysicalMemory* memory) : table_(table), memory_(memory) {}

  Result<uint64_t> ReadData(const AccessDescriptor& ad, uint32_t offset, uint32_t width) {
    if (!ValidWidth(width)) return Fault::kInvalidArgument;
    IMAX_ASSIGN_OR_RETURN(PhysAddr addr, CheckData(ad, offset, width, rights::kRead));
    return memory_->Read(addr, width);
  }

  Status WriteData(const AccessDescriptor& ad, uint32_t offset, uint32_t width,
                   uint64_t value) {
    if (!ValidWidth(width)) return Fault::kInvalidArgument;
    IMAX_ASSIGN_OR_RETURN(PhysAddr addr, CheckData(ad, offset, width, rights::kWrite));
    IMAX_RETURN_IF_FAULT(memory_->Write(addr, width, value));
    ++table_->At(ad.index()).data_epoch;
    return Status::Ok();
  }

  // A read, then a write of the sum truncated to the width: AddData's architectural meaning.
  Result<uint64_t> AddData(const AccessDescriptor& ad, uint32_t offset, uint32_t width,
                           uint64_t delta) {
    IMAX_ASSIGN_OR_RETURN(uint64_t value, ReadData(ad, offset, width));
    value += delta;
    if (width < 8) value &= (uint64_t{1} << (8 * width)) - 1;
    IMAX_RETURN_IF_FAULT(WriteData(ad, offset, width, value));
    return value;
  }

  Result<AccessDescriptor> ReadAd(const AccessDescriptor& container, uint32_t slot) {
    IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * object, table_->Resolve(container));
    if (object->quarantined) return Fault::kObjectQuarantined;
    if (!container.HasRights(rights::kRead)) return Fault::kRightsViolation;
    if (slot >= object->access_count()) return Fault::kBoundsViolation;
    return object->access[slot];
  }

  Status WriteAd(const AccessDescriptor& container, uint32_t slot, const AccessDescriptor& ad) {
    IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * object, table_->Resolve(container));
    if (object->quarantined) return Fault::kObjectQuarantined;
    if (!container.HasRights(rights::kWrite)) return Fault::kRightsViolation;
    if (slot >= object->access_count()) return Fault::kBoundsViolation;
    if (ad.is_null()) {
      object->access[slot] = AccessDescriptor();
      return Status::Ok();
    }
    IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * referenced, table_->Resolve(ad));
    if (object->level < referenced->level) return Fault::kLevelViolation;
    if (referenced->color == GcColor::kWhite) referenced->color = GcColor::kGray;
    object->access[slot] = ad;
    return Status::Ok();
  }

  ObjectIndex last_swapped_object() const { return last_swapped_; }

 private:
  static bool ValidWidth(uint32_t width) {
    return width == 1 || width == 2 || width == 4 || width == 8;
  }

  Result<PhysAddr> CheckData(const AccessDescriptor& ad, uint32_t offset, uint32_t length,
                             RightsMask required) {
    IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * object, table_->Resolve(ad));
    if (object->quarantined) return Fault::kObjectQuarantined;
    if (!ad.HasRights(required)) return Fault::kRightsViolation;
    if (object->swapped_out) {
      last_swapped_ = ad.index();
      return Fault::kSegmentSwapped;
    }
    if (static_cast<uint64_t>(offset) + length > object->data_length) {
      return Fault::kBoundsViolation;
    }
    return static_cast<PhysAddr>(object->data_base + offset);
  }

  ObjectTable* table_;
  PhysicalMemory* memory_;
  ObjectIndex last_swapped_ = kInvalidObjectIndex;
};

MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_bytes = 1024 * 1024;
  config.object_table_capacity = 1024;
  return config;
}

// One side of the lockstep pair: a machine, its memory manager and program store.
struct Side {
  Side() : machine(SmallConfig()), memory(&machine), programs(&machine, &memory) {}

  Machine machine;
  BasicMemoryManager memory;
  ProgramStore programs;
};

// An object the sequence may address: the full-rights AD (for destroy) and the AD the
// operations present, which restriction narrows and reallocation leaves stale.
struct Handle {
  AccessDescriptor full;
  AccessDescriptor view;
};

ProgramRef MakeProgram(uint32_t serial) {
  Assembler a("diff." + std::to_string(serial));
  for (uint32_t i = 0; i <= serial % 5; ++i) a.LoadImm(0, i);
  a.Halt();
  return a.Build();
}

void ExpectSameFault(Fault cached, Fault reference, uint64_t step, const char* op) {
  EXPECT_EQ(FaultName(cached), FaultName(reference)) << op << " at step " << step;
}

class XlatDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  XlatDifferentialTest() : reference_(&ref_.machine.table(), &ref_.machine.memory()) {
    cached_.machine.addressing().BindXlatCache(&cache_);
  }

  AddressingUnit& au() { return cached_.machine.addressing(); }

  // Creates the same object on both sides; the allocators are deterministic, so the ADs
  // must agree too.
  void CreatePair(const AccessDescriptor& sro, SystemType type, uint32_t data_bytes,
                  uint32_t slots, RightsMask rights, std::vector<Handle>* into) {
    auto a = cached_.memory.CreateObject(sro, type, data_bytes, slots, rights);
    auto b = ref_.memory.CreateObject(sro, type, data_bytes, slots, rights);
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) return;
    ASSERT_EQ(a.value(), b.value());
    into->push_back(Handle{a.value(), a.value()});
  }

  // Same descriptors, same data parts, same access parts, on both sides.
  void ExpectSameState(uint64_t step) {
    const ObjectTable& ta = cached_.machine.table();
    const ObjectTable& tb = ref_.machine.table();
    for (ObjectIndex i = 0; i < ta.capacity(); ++i) {
      const ObjectDescriptor& a = ta.At(i);
      const ObjectDescriptor& b = tb.At(i);
      ASSERT_EQ(a.allocated, b.allocated) << "object " << i << " at step " << step;
      if (!a.allocated) continue;
      ASSERT_EQ(a.generation, b.generation) << "object " << i;
      ASSERT_EQ(a.data_epoch, b.data_epoch) << "object " << i << " at step " << step;
      ASSERT_EQ(a.color, b.color) << "object " << i << " at step " << step;
      ASSERT_EQ(a.access, b.access) << "object " << i << " at step " << step;
      for (uint32_t off = 0; off < a.data_length; ++off) {
        ASSERT_EQ(cached_.machine.memory().Read(a.data_base + off, 1).value(),
                  ref_.machine.memory().Read(b.data_base + off, 1).value())
            << "object " << i << " byte " << off << " at step " << step;
      }
    }
  }

  XlatCache cache_;  // declared first: cached_'s addressing unit points at it
  Side cached_;
  Side ref_;
  ReferenceAu reference_;
};

TEST_P(XlatDifferentialTest, CachedPathsMatchTheUncachedReferenceStepForStep) {
  Xorshift rng(GetParam());
  constexpr uint64_t kSteps = 12000;
  constexpr RightsMask kObjectRights = rights::kRead | rights::kWrite | rights::kDelete;

  // Three lifetime levels for the storing rule: the global heap and two local heaps.
  std::vector<AccessDescriptor> sros = {cached_.memory.global_heap()};
  for (Level level = 1; level <= 2; ++level) {
    auto a = cached_.memory.CreateLocalSro(cached_.memory.global_heap(), 64 * 1024, level);
    auto b = ref_.memory.CreateLocalSro(ref_.memory.global_heap(), 64 * 1024, level);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value(), b.value());
    sros.push_back(a.value());
  }
  // More live objects than cache entries, so direct-mapped conflicts are routine.
  std::vector<Handle> handles;
  for (int i = 0; i < 96; ++i) {
    CreatePair(sros[rng.NextBelow(sros.size())], SystemType::kGeneric,
               static_cast<uint32_t>(8 * rng.NextInRange(1, 8)),
               static_cast<uint32_t>(rng.NextBelow(6)), kObjectRights, &handles);
  }
  std::vector<AccessDescriptor> segments;
  uint32_t serial = 0;

  auto pick = [&]() -> Handle& { return handles[rng.NextBelow(handles.size())]; };
  auto any_ad = [&]() -> AccessDescriptor {
    return rng.NextChance(1, 16) ? AccessDescriptor() : pick().view;
  };
  auto offset_for = [&](const AccessDescriptor& ad) -> uint32_t {
    uint32_t length = ad.index() < cached_.machine.table().capacity()
                          ? cached_.machine.table().At(ad.index()).data_length
                          : 64;
    return static_cast<uint32_t>(rng.NextBelow(length + 12));  // sometimes past the end
  };
  constexpr uint32_t kWidths[] = {1, 2, 4, 8, 8, 3};

  for (uint64_t step = 0; step < kSteps; ++step) {
    switch (rng.NextBelow(18)) {
      case 0:
      case 1:
      case 2: {  // data read
        AccessDescriptor ad = any_ad();
        uint32_t offset = offset_for(ad);
        uint32_t width = kWidths[rng.NextBelow(6)];
        auto a = au().ReadData(ad, offset, width);
        auto b = reference_.ReadData(ad, offset, width);
        ASSERT_EQ(a.ok(), b.ok()) << "ReadData at step " << step;
        if (a.ok()) {
          EXPECT_EQ(a.value(), b.value()) << "ReadData at step " << step;
        } else {
          ExpectSameFault(a.fault(), b.fault(), step, "ReadData");
        }
        break;
      }
      case 3:
      case 4:
      case 5: {  // data write
        AccessDescriptor ad = any_ad();
        uint32_t offset = offset_for(ad);
        uint32_t width = kWidths[rng.NextBelow(6)];
        uint64_t value = rng.Next();
        Status a = au().WriteData(ad, offset, width, value);
        Status b = reference_.WriteData(ad, offset, width, value);
        ASSERT_EQ(a.ok(), b.ok()) << "WriteData at step " << step;
        if (!a.ok()) ExpectSameFault(a.fault(), b.fault(), step, "WriteData");
        break;
      }
      case 6: {  // access-part read
        AccessDescriptor container = any_ad();
        uint32_t slot = static_cast<uint32_t>(rng.NextBelow(7));
        auto a = au().ReadAd(container, slot);
        auto b = reference_.ReadAd(container, slot);
        ASSERT_EQ(a.ok(), b.ok()) << "ReadAd at step " << step;
        if (a.ok()) {
          EXPECT_EQ(a.value(), b.value()) << "ReadAd at step " << step;
        } else {
          ExpectSameFault(a.fault(), b.fault(), step, "ReadAd");
        }
        break;
      }
      case 7:
      case 8: {  // access-part write: rights, bounds, the level rule, gray shading
        AccessDescriptor container = any_ad();
        AccessDescriptor value = any_ad();
        uint32_t slot = static_cast<uint32_t>(rng.NextBelow(7));
        Status a = au().WriteAd(container, slot, value);
        Status b = reference_.WriteAd(container, slot, value);
        ASSERT_EQ(a.ok(), b.ok()) << "WriteAd at step " << step;
        if (!a.ok()) ExpectSameFault(a.fault(), b.fault(), step, "WriteAd");
        break;
      }
      case 9: {  // rights restriction (sometimes back to full rights)
        Handle& h = pick();
        h.view = rng.NextChance(1, 3) ? h.full
                                      : h.full.Restricted(static_cast<RightsMask>(
                                            rng.NextBelow(rights::kAll + 1)));
        break;
      }
      case 10: {  // free, then reallocate: the slot usually comes back a generation later
        Handle& h = pick();
        Status a = cached_.memory.DestroyObject(h.full);
        Status b = ref_.memory.DestroyObject(h.full);
        ASSERT_EQ(a.ok(), b.ok()) << "DestroyObject at step " << step;
        if (a.ok() && rng.NextChance(1, 2)) {
          // Keep the stale AD in play next to its successor.
          CreatePair(sros[rng.NextBelow(sros.size())], SystemType::kGeneric,
                     static_cast<uint32_t>(8 * rng.NextInRange(1, 8)),
                     static_cast<uint32_t>(rng.NextBelow(6)), kObjectRights, &handles);
        }
        break;
      }
      case 11: {  // quarantine toggle
        ObjectIndex index = pick().full.index();
        cached_.machine.table().At(index).quarantined ^= true;
        ref_.machine.table().At(index).quarantined ^= true;
        break;
      }
      case 12: {  // swap-out toggle
        ObjectIndex index = pick().full.index();
        cached_.machine.table().At(index).swapped_out ^= true;
        ref_.machine.table().At(index).swapped_out ^= true;
        break;
      }
      case 13: {  // program registration, hot-patch, or content drop
        uint64_t action = segments.empty() ? 0 : rng.NextBelow(4);
        if (action == 0) {
          auto a = cached_.programs.Register(MakeProgram(serial));
          auto b = ref_.programs.Register(MakeProgram(serial));
          ++serial;
          ASSERT_TRUE(a.ok() && b.ok());
          ASSERT_EQ(a.value(), b.value());
          segments.push_back(a.value());
        } else if (action == 1) {
          AccessDescriptor segment = segments[rng.NextBelow(segments.size())];
          Status a = cached_.programs.Replace(segment, MakeProgram(serial));
          Status b = ref_.programs.Replace(segment, MakeProgram(serial));
          ++serial;
          ASSERT_EQ(a.ok(), b.ok()) << "Replace at step " << step;
        } else if (action == 2) {
          // The collector's reclaim path: free the segment object, then drop its content.
          AccessDescriptor segment = segments[rng.NextBelow(segments.size())];
          if (cached_.machine.table().Resolve(segment).ok()) {
            ASSERT_TRUE(cached_.machine.table().Free(segment.index()).ok());
            ASSERT_TRUE(ref_.machine.table().Free(segment.index()).ok());
          }
          cached_.programs.Forget(segment.index());
          ref_.programs.Forget(segment.index());
        } else {
          // Content dropped under a live segment object.
          AccessDescriptor segment = segments[rng.NextBelow(segments.size())];
          cached_.programs.Forget(segment.index());
          ref_.programs.Forget(segment.index());
        }
        break;
      }
      case 14:
      case 15: {  // counter read-modify-write on one translation
        AccessDescriptor ad = any_ad();
        uint32_t offset = offset_for(ad);
        uint32_t width = kWidths[rng.NextBelow(6)];
        uint64_t delta = rng.NextChance(1, 4) ? rng.Next() : rng.NextBelow(1000);
        auto a = au().AddData(ad, offset, width, delta);
        auto b = reference_.AddData(ad, offset, width, delta);
        ASSERT_EQ(a.ok(), b.ok()) << "AddData at step " << step;
        if (a.ok()) {
          EXPECT_EQ(a.value(), b.value()) << "AddData at step " << step;
        } else {
          ExpectSameFault(a.fault(), b.fault(), step, "AddData");
        }
        if (ad.index() < cached_.machine.table().capacity()) {
          const ObjectDescriptor& da = cached_.machine.table().At(ad.index());
          const ObjectDescriptor& db = ref_.machine.table().At(ad.index());
          EXPECT_EQ(da.data_epoch, db.data_epoch) << "AddData at step " << step;
          if (a.ok()) {
            EXPECT_EQ(cached_.machine.memory().Read(da.data_base + offset, width).value(),
                      ref_.machine.memory().Read(db.data_base + offset, width).value())
                << "AddData at step " << step;
          }
        }
        break;
      }
      default: {  // instruction fetch: any segment, or a non-segment object
        AccessDescriptor ad = segments.empty() || rng.NextChance(1, 8)
                                  ? any_ad()
                                  : segments[rng.NextBelow(segments.size())];
        auto a = cached_.programs.FetchCached(&cache_, ad);
        auto b = ref_.programs.Fetch(ad);
        ASSERT_EQ(a.ok(), b.ok()) << "fetch at step " << step;
        if (a.ok()) {
          EXPECT_EQ(a.value()->name(), b.value()->name()) << "fetch at step " << step;
          EXPECT_EQ(a.value()->size(), b.value()->size()) << "fetch at step " << step;
        } else {
          ExpectSameFault(a.fault(), b.fault(), step, "fetch");
        }
        break;
      }
    }
    EXPECT_EQ(au().last_swapped_object(), reference_.last_swapped_object())
        << "step " << step;
    if (HasFatalFailure() || HasNonfatalFailure()) return;
    if (step % 1000 == 999) {
      ExpectSameState(step);
      if (HasFatalFailure()) return;
    }
  }
  ExpectSameState(kSteps);

  // The sequence really exercised the cache: both tiers hit, and both missed.
  EXPECT_GT(cache_.stats().hits, 0u);
  EXPECT_GT(cache_.stats().misses, 0u);
  EXPECT_GT(cache_.stats().program_hits, 0u);
  EXPECT_GT(cache_.stats().program_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XlatDifferentialTest,
                         ::testing::Values(101u, 102u, 103u, 104u, 20260805u));

}  // namespace
}  // namespace imax432
