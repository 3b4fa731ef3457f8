// Per-processor AD-translation cache: the emulator's on-chip descriptor cache.
//
// Every object touch in the interpreter funnels through ObjectTable::Resolve — a capacity
// check plus allocated/generation validation per access, roughly a dozen times per
// instruction once context fields, registers, and cycle accounting are counted. On the real
// 432 each processor kept the hot descriptors in an on-chip cache; this class is that
// structure for the emulator, a small direct-mapped array that is part of the
// AddressingUnit (Kernel::ProcessorStep binds the executing processor's cache every step)
// and of the kernel's instruction-fetch path. It is always on.
//
// Every entry is epoch-keyed (DESIGN.md §6.4). A hit revalidates the descriptor's
// `allocated` bit and generation against the presented AD (exactly the checks
// ObjectTable::Resolve performs), so a freed or reallocated slot can never serve stale; what
// the hit skips is the call, the capacity test, and the Result plumbing. Instruction-fetch
// payload hits additionally revalidate the segment type, the descriptor's `data_epoch`, and
// the ProgramStore version before bypassing the store's map lookup.
//
// Downstream checks are NOT cached: rights, bounds, quarantine, and swap state are examined
// per access by the AddressingUnit on the descriptor a hit returns, and `data_base` is
// re-read on every data access (so swap-in relocation needs no invalidation). The cache
// holds host-side state only and charges no cycles — virtual time is bit-identical to
// resolving every access through the object table, so replay fingerprints are unchanged.

#ifndef IMAX432_SRC_ARCH_XLAT_CACHE_H_
#define IMAX432_SRC_ARCH_XLAT_CACHE_H_

#include <array>
#include <cstdint>

#include "src/arch/types.h"

namespace imax432 {

struct ObjectDescriptor;

struct XlatEntry {
  ObjectIndex index = kInvalidObjectIndex;
  uint32_t generation = 0;
  // Descriptor slot pointer. Stable for the table's lifetime (slots are never reallocated);
  // liveness is revalidated on every hit.
  ObjectDescriptor* descriptor = nullptr;
  // Decoded-program payload for instruction segments (kernel-owned const Program*, typed
  // void to keep this arch header free of isa dependencies). Null for entries filled by the
  // AddressingUnit resolve path.
  const void* program = nullptr;
  uint64_t program_version = 0;  // ProgramStore::version() at program fill
  uint32_t data_epoch = 0;       // descriptor->data_epoch at program fill
};

struct XlatCacheStats {
  uint64_t hits = 0;            // resolve hits (AddressingUnit path)
  uint64_t misses = 0;          // probes that fell back to the authoritative Resolve
  uint64_t program_hits = 0;    // instruction-fetch payload hits
  uint64_t program_misses = 0;  // fetches that fell back to Resolve + store lookup
};

class XlatCache {
 public:
  static constexpr uint32_t kEntries = 64;  // direct-mapped, power of two

  XlatEntry& Probe(ObjectIndex index) { return entries_[index & (kEntries - 1)]; }

  void Clear() { entries_.fill(XlatEntry{}); }

  XlatCacheStats& stats() { return stats_; }
  const XlatCacheStats& stats() const { return stats_; }

 private:
  std::array<XlatEntry, kEntries> entries_{};
  XlatCacheStats stats_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ARCH_XLAT_CACHE_H_
