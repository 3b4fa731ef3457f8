// AddressingUnit: every segment-relative access in the system funnels through here.
//
// This is the emulator's stand-in for the 432's on-chip address translation and protection
// machinery. It enforces, on every operation:
//   - AD validity (null / stale generation),
//   - rights (read/write on the data part, write on access slots),
//   - part bounds (data offsets, access slot indices),
//   - the lifetime storing rule ("an access for an object may never be stored into an object
//     with a lower (more global) level number"),
//   - residency (swapped-out segments fault with kSegmentSwapped for the memory manager),
// and performs, on every AD store, the Dijkstra-collector cooperation the paper attributes to
// hardware: "the 432 hardware implements the gray bit of that algorithm, setting it whenever
// access descriptors are moved."

#ifndef IMAX432_SRC_ARCH_ADDRESSING_UNIT_H_
#define IMAX432_SRC_ARCH_ADDRESSING_UNIT_H_

#include <cstdint>
#include <cstring>

#include "src/arch/access_descriptor.h"
#include "src/arch/object_table.h"
#include "src/arch/physical_memory.h"
#include "src/arch/types.h"
#include "src/arch/xlat_cache.h"
#include "src/base/result.h"

namespace imax432 {

class AddressingUnit {
 public:
  AddressingUnit(ObjectTable* table, PhysicalMemory* memory) : table_(table), memory_(memory) {}

  // xlat_ may point at own_xlat_, so the unit stays where it was built.
  AddressingUnit(const AddressingUnit&) = delete;
  AddressingUnit& operator=(const AddressingUnit&) = delete;

  // --- Data part access (scalar, little-endian; width in {1, 2, 4, 8}) ---
  // A translation-cache hit that passes every check is served inline, here; anything else
  // (miss, fault, bad width) takes the out-of-line slow path, which alone selects faults.
  Result<uint64_t> ReadData(const AccessDescriptor& ad, uint32_t offset, uint32_t width) const {
    ObjectDescriptor* hit = CacheHit(ad);
    if (hit != nullptr && FastDataAccessOk(*hit, ad, offset, width, rights::kRead)) {
      ++xlat_->stats().hits;
      return LoadScalar(memory_->at(hit->data_base + offset), width);
    }
    return ReadDataSlow(ad, offset, width);
  }
  Status WriteData(const AccessDescriptor& ad, uint32_t offset, uint32_t width, uint64_t value) {
    ObjectDescriptor* hit = CacheHit(ad);
    if (hit != nullptr && FastDataAccessOk(*hit, ad, offset, width, rights::kWrite)) {
      ++xlat_->stats().hits;
      StoreScalar(memory_->at(hit->data_base + offset), width, value);
      // Same epoch bump as the slow path, on the descriptor already in hand.
      ++hit->data_epoch;
      return Status::Ok();
    }
    return WriteDataSlow(ad, offset, width, value);
  }
  // Read-modify-write of one scalar: adds `delta` (mod 2^(8*width)) and returns the stored
  // value. Needs read and write rights and bumps data_epoch once. A hit that passes every
  // check is one translation; otherwise the result, fault, memory and epoch are exactly
  // those of ReadData followed by WriteData.
  Result<uint64_t> AddData(const AccessDescriptor& ad, uint32_t offset, uint32_t width,
                           uint64_t delta) {
    ObjectDescriptor* hit = CacheHit(ad);
    if (hit != nullptr &&
        FastDataAccessOk(*hit, ad, offset, width, rights::kRead | rights::kWrite)) {
      ++xlat_->stats().hits;
      uint8_t* at = memory_->at(hit->data_base + offset);
      uint64_t value = TruncateToWidth(LoadScalar(at, width) + delta, width);
      StoreScalar(at, width, value);
      ++hit->data_epoch;
      return value;
    }
    return AddDataSlow(ad, offset, width, delta);
  }

  // Bulk variants used by object filing and device DMA models; same checks as the scalar
  // forms, one rights evaluation for the whole transfer.
  Status ReadDataBlock(const AccessDescriptor& ad, uint32_t offset, void* out,
                       uint32_t length) const;
  Status WriteDataBlock(const AccessDescriptor& ad, uint32_t offset, const void* in,
                        uint32_t length);

  // --- Access part access ---
  // Reading an AD slot requires read rights on the container.
  Result<AccessDescriptor> ReadAd(const AccessDescriptor& container, uint32_t slot) const {
    const ObjectDescriptor* hit = CacheHit(container);
    if (hit != nullptr && !hit->quarantined && container.HasRights(rights::kRead) &&
        slot < hit->access_count()) {
      ++xlat_->stats().hits;
      return hit->access[slot];
    }
    return ReadAdSlow(container, slot);
  }
  // Storing an AD requires write rights on the container, performs the level check against
  // the *referenced* object, and shades the referenced object gray (mutator cooperation with
  // the on-the-fly collector). Storing a null AD always succeeds (it clears the slot).
  Status WriteAd(const AccessDescriptor& container, uint32_t slot, const AccessDescriptor& ad);

  // Privileged AD store: bounds-checked and gray-shading, but exempt from rights and level
  // checks. This models two things the 432 microcode did outside the mutator store path:
  // maintaining system-object linkage (a process object referencing its deeper-level current
  // context), and the per-processor register file (our AD registers live in context objects,
  // but architecturally they are registers, which the level rule does not govern — only
  // stores into *memory* are checked). Kernel-internal use only.
  Status WriteAdPrivileged(const AccessDescriptor& container, uint32_t slot,
                           const AccessDescriptor& ad);

  // --- Typed resolution helpers used by the high-level instructions ---
  // Resolves and checks the object's system type and that the AD carries `required` rights.
  Result<ObjectDescriptor*> ResolveTyped(const AccessDescriptor& ad, SystemType type,
                                         RightsMask required);
  // Resolve with rights check only.
  Result<ObjectDescriptor*> ResolveChecked(const AccessDescriptor& ad, RightsMask required);

  ObjectTable& table() { return *table_; }
  const ObjectTable& table() const { return *table_; }
  PhysicalMemory& memory() { return *memory_; }

  // Count of AD stores that shaded a white object gray (diagnostics for GC experiments).
  uint64_t shade_count() const { return shade_count_; }

  // The object whose non-residency caused the most recent kSegmentSwapped fault (the 432's
  // fault-information area; the memory manager reads it to service the fault).
  ObjectIndex last_swapped_object() const { return last_swapped_object_; }

  // Binds the executing processor's AD-translation cache; nullptr rebinds the unit's own
  // cache, which serves until a processor's cache is bound. Every Resolve in this unit goes
  // through CachedResolve: a hit replicates Resolve's allocated/generation checks on the
  // cached descriptor pointer. Rights, bounds, quarantine, swap state, and data_base stay
  // per-access on the resolved descriptor, so fault semantics are byte-identical to
  // resolving through the object table.
  void BindXlatCache(XlatCache* cache) { xlat_ = cache != nullptr ? cache : &own_xlat_; }

 private:
  // Width-dispatched little-endian scalar access for the inline hit paths: each case
  // compiles to a single fixed-size move instead of a variable-length memcpy call.
  static uint64_t LoadScalar(const uint8_t* p, uint32_t width) {
    switch (width) {
      case 1:
        return *p;
      case 2: {
        uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 4: {
        uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      default: {
        uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
      }
    }
  }

  static void StoreScalar(uint8_t* p, uint32_t width, uint64_t value) {
    switch (width) {
      case 1:
        *p = static_cast<uint8_t>(value);
        return;
      case 2: {
        uint16_t v = static_cast<uint16_t>(value);
        std::memcpy(p, &v, 2);
        return;
      }
      case 4: {
        uint32_t v = static_cast<uint32_t>(value);
        std::memcpy(p, &v, 4);
        return;
      }
      default:
        std::memcpy(p, &value, 8);
        return;
    }
  }

  // The value a `width`-byte store keeps of `value`.
  static uint64_t TruncateToWidth(uint64_t value, uint32_t width) {
    return width >= 8 ? value : value & ((uint64_t{1} << (8 * width)) - 1);
  }

  // The hit paths' per-access checks: every check CheckDataAccess performs, evaluated on a
  // cache-hit descriptor in one branch chain. Any failure sends the caller to the slow path,
  // which owns fault selection, so fault semantics are byte-identical to an uncached resolve.
  bool FastDataAccessOk(const ObjectDescriptor& descriptor, const AccessDescriptor& ad,
                        uint32_t offset, uint32_t width, RightsMask required) const {
    return !descriptor.quarantined && !descriptor.swapped_out && ad.HasRights(required) &&
           static_cast<uint64_t>(offset) + width <= descriptor.data_length &&
           memory_->InRange(descriptor.data_base + offset, width) &&
           (width == 1 || width == 2 || width == 4 || width == 8);
  }

  // Out-of-line slow paths: the translation miss, every fault, and invalid widths.
  Result<uint64_t> ReadDataSlow(const AccessDescriptor& ad, uint32_t offset,
                                uint32_t width) const;
  Status WriteDataSlow(const AccessDescriptor& ad, uint32_t offset, uint32_t width,
                       uint64_t value);
  Result<uint64_t> AddDataSlow(const AccessDescriptor& ad, uint32_t offset, uint32_t width,
                               uint64_t delta);
  Result<AccessDescriptor> ReadAdSlow(const AccessDescriptor& container, uint32_t slot) const;

  // Common data-part checks; returns the physical address of (ad.data_base + offset).
  Result<PhysAddr> CheckDataAccess(const AccessDescriptor& ad, uint32_t offset,
                                   uint32_t length, RightsMask required) const;

  // The cached descriptor when the bound cache holds a live translation for `ad`, else
  // nullptr. Liveness is exactly what ObjectTable::Resolve checks: allocated bit and
  // generation, re-read from the descriptor on every probe.
  ObjectDescriptor* CacheHit(const AccessDescriptor& ad) const {
    const XlatEntry& entry = xlat_->Probe(ad.index());
    ObjectDescriptor* descriptor = entry.descriptor;
    if (descriptor != nullptr && entry.index == ad.index() &&
        entry.generation == ad.generation() && descriptor->allocated &&
        descriptor->generation == ad.generation()) {
      return descriptor;
    }
    return nullptr;
  }

  // ObjectTable::Resolve through the bound translation cache. Hot: inline.
  Result<ObjectDescriptor*> CachedResolve(const AccessDescriptor& ad) const {
    if (ObjectDescriptor* hit = CacheHit(ad)) {
      ++xlat_->stats().hits;
      return hit;
    }
    return ResolveAndFill(ad);
  }

  // Slow path: authoritative Resolve, then (on success) fill the probed entry. Fault
  // outcomes are never cached.
  Result<ObjectDescriptor*> ResolveAndFill(const AccessDescriptor& ad) const;

  ObjectTable* table_;
  PhysicalMemory* memory_;
  uint64_t shade_count_ = 0;
  mutable ObjectIndex last_swapped_object_ = kInvalidObjectIndex;
  XlatCache own_xlat_;
  XlatCache* xlat_ = &own_xlat_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_ADDRESSING_UNIT_H_
