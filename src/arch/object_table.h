// ObjectTable: the single global object descriptor table.
//
// Every AD in the system names an entry here. The table hands out descriptor slots from a
// free list, stamps generations on reuse, and is the authority for resolving an AD to its
// descriptor (with null / liveness / generation checks).

#ifndef IMAX432_SRC_ARCH_OBJECT_TABLE_H_
#define IMAX432_SRC_ARCH_OBJECT_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/arch/access_descriptor.h"
#include "src/arch/object_descriptor.h"
#include "src/arch/types.h"
#include "src/base/result.h"

namespace imax432 {

class ObjectTable {
 public:
  // `capacity` is the maximum number of simultaneously live objects.
  explicit ObjectTable(uint32_t capacity);

  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;

  // Claims a free descriptor slot and initializes it. Returns kObjectTableFull when no slot
  // is free. The caller (an SRO) has already placed the data part.
  Result<ObjectIndex> Allocate(SystemType type, Level level, PhysAddr data_base,
                               uint32_t data_length, uint32_t access_slots,
                               ObjectIndex origin_sro, uint32_t storage_claim);

  // Releases a descriptor slot. The slot's generation advances so outstanding ADs die.
  Status Free(ObjectIndex index);

  // The lowest allocated index in [from, min(end, capacity())), or min(end, capacity())
  // when there is none. Reads the allocation bitmap, so a walk over the table costs
  // O(capacity / 64 + live) rather than one descriptor per slot; a walk that frees or
  // allocates as it goes sees every change at indices it has not passed yet.
  ObjectIndex NextAllocated(ObjectIndex from, ObjectIndex end) const {
    uint32_t limit = std::min(end, capacity());
    if (from >= limit) {
      return limit;
    }
    uint32_t word = from / 64;
    uint64_t bits = allocated_bits_[word] & (~uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++word * 64 >= limit) {
        return limit;
      }
      bits = allocated_bits_[word];
    }
    return std::min(word * 64 + static_cast<uint32_t>(std::countr_zero(bits)), limit);
  }

  // Calls fn(index) for every allocated index in [from, min(end, capacity())), ascending.
  // The bitmap is read afresh after each call, so fn may free or allocate slots.
  template <typename Fn>
  void ForEachAllocated(ObjectIndex from, ObjectIndex end, Fn&& fn) const {
    uint32_t limit = std::min(end, capacity());
    for (ObjectIndex i = NextAllocated(from, limit); i < limit; i = NextAllocated(i + 1, limit)) {
      fn(i);
    }
  }

  // Resolves an AD to its live descriptor. Faults: kNullAccess, kInvalidAccess (bad index,
  // unallocated slot, or generation mismatch).
  Result<ObjectDescriptor*> Resolve(const AccessDescriptor& ad);
  Result<const ObjectDescriptor*> Resolve(const AccessDescriptor& ad) const;

  // Mints an AD for a live descriptor with the given rights. This is a privileged operation:
  // only object-creating services (SROs, type managers) and the GC's destruction-filter path
  // ("The garbage collector will manufacture an access descriptor for such objects") call it.
  Result<AccessDescriptor> MintAd(ObjectIndex index, RightsMask ad_rights) const;

  // Unchecked descriptor access by index for iteration (GC, diagnostics). Index must be
  // < capacity(); the slot may be unallocated.
  ObjectDescriptor& At(ObjectIndex index);
  const ObjectDescriptor& At(ObjectIndex index) const;

  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }
  uint32_t live_count() const { return live_count_; }
  uint32_t free_count() const { return capacity() - live_count_; }

  // Lifetime-rule helper: true when an AD for `referenced` may be stored into `container`
  // ("The hardware ensures that an access for an object may never be stored into an object
  // with a lower (more global) level number.")
  static bool StorePermitted(const ObjectDescriptor& container,
                             const ObjectDescriptor& referenced) {
    return container.level >= referenced.level;
  }

  // Checksum over the descriptor's identity fields (type, level, data_length, access slot
  // count, origin SRO). Mutable operational state (data_base, swap state, GC color,
  // generation) is deliberately excluded so the patrol scan never flags normal operation.
  static uint32_t DescriptorChecksum(const ObjectDescriptor& descriptor);

  // Recomputes and stores the identity checksum for a live slot. Allocate seals every new
  // descriptor; callers that legitimately mutate identity fields afterwards (e.g. the kernel
  // overriding a context's level) must re-seal.
  void Seal(ObjectIndex index);

 private:
  std::vector<ObjectDescriptor> slots_;
  // Bit i is set while slot i is allocated (mirrors ObjectDescriptor::allocated).
  std::vector<uint64_t> allocated_bits_;
  std::vector<ObjectIndex> free_list_;
  uint32_t live_count_ = 0;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_OBJECT_TABLE_H_
