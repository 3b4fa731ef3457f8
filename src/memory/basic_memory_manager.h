// BasicMemoryManager: the non-swapping implementation of the memory specification.
//
// "We have implemented the non-swapping version for the first release of the system."
// All data parts are permanently resident; allocation fails with kStorageExhausted when the
// target SRO has no sufficient free extent.
//
// Construction boots the storage system: it hand-crafts the root (global heap) SRO covering
// all of physical memory above a small reserved boot area, mirroring iMAX initialization.

#ifndef IMAX432_SRC_MEMORY_BASIC_MEMORY_MANAGER_H_
#define IMAX432_SRC_MEMORY_BASIC_MEMORY_MANAGER_H_

#include <map>
#include <memory>

#include "src/memory/memory_manager.h"
#include "src/memory/sro.h"
#include "src/sim/machine.h"

namespace imax432 {

class BasicMemoryManager : public MemoryManager {
 public:
  explicit BasicMemoryManager(Machine* machine);

  AccessDescriptor global_heap() const override { return global_heap_; }

  Result<AccessDescriptor> CreateObject(const AccessDescriptor& sro_ad, SystemType type,
                                        uint32_t data_bytes, uint32_t access_slots,
                                        RightsMask ad_rights) override;
  Status DestroyObject(const AccessDescriptor& ad) override;
  Result<AccessDescriptor> CreateLocalSro(const AccessDescriptor& parent_sro, uint32_t bytes,
                                          Level level) override;
  Result<uint32_t> DestroySro(const AccessDescriptor& sro_ad) override;
  Result<Cycles> EnsureResident(ObjectIndex index) override;
  MemoryStats stats() const override { return stats_; }
  Status ReclaimGarbage(ObjectIndex index) override;

  // Allocation state of the SRO whose object index is `sro`, or null if there is none
  // (diagnostics and tests: e.g. the order of Sro::objects()).
  const Sro* FindSro(ObjectIndex sro) const {
    auto it = sros_.find(sro);
    return it == sros_.end() ? nullptr : it->second.get();
  }

 protected:
  // Allocates physical space from `sro`; the swapping subclass overrides this to evict on
  // exhaustion. `bytes` is the total architectural claim of the new object.
  virtual Result<PhysAddr> AllocateSpace(Sro* sro, uint32_t bytes);

  // Resolves an SRO AD (type + rights checked) to its allocation state.
  Result<Sro*> ResolveSro(const AccessDescriptor& sro_ad, RightsMask required);

  // Called when an object is destroyed while its data part is swapped out, so the swapping
  // subclass can release the backing-store slot. No-op for the non-swapping implementation
  // (the situation cannot arise).
  virtual void ReleaseBackingCopy(const ObjectDescriptor& descriptor) { (void)descriptor; }

  // Destroys one object: returns storage to its origin SRO and frees its descriptor.
  // `forget_in_origin` is false during bulk SRO destruction (the whole origin dies anyway).
  Status DestroyByIndex(ObjectIndex index, bool forget_in_origin);

  // Recursive bulk destruction used by DestroySro.
  Result<uint32_t> DestroySroState(Sro* sro);

  // Mirrors counters into the SRO object's data part.
  void SyncSroCounters(const Sro& sro);

  Machine* machine() { return machine_; }
  MemoryStats& mutable_stats() { return stats_; }
  std::map<ObjectIndex, std::unique_ptr<Sro>>& sros() { return sros_; }

 private:
  Machine* machine_;
  AccessDescriptor global_heap_;
  std::map<ObjectIndex, std::unique_ptr<Sro>> sros_;
  MemoryStats stats_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_MEMORY_BASIC_MEMORY_MANAGER_H_
