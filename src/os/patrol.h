// ObjectPatrol: the object-table integrity patrol — the recovery half of the fault-injection
// story for memory corruption.
//
// The 432's central claim is that no failure propagates silently: faults become data and
// arrive at ports. Bit rot in a segment or a damaged object descriptor is the one failure
// class the hardware checks cannot catch (they validate rights and bounds, not contents), so
// the patrol closes the gap in software: a low-priority daemon — structured exactly like the
// GC daemon — walks the descriptor table in bounded increments validating, per descriptor,
//   1. the identity checksum sealed at allocation (type, level, sizes, origin SRO),
//   2. the level storing rule over every resolvable AD in the access part, and
//   3. a shadow CRC of the data part, using the descriptor's data_epoch (bumped by the
//      AddressingUnit on every mutator write) to tell a legitimate rewrite from corruption.
//
// A corrupt object is *quarantined*, never repaired: its rep-rights are revoked (descriptor
// flag; every checked access faults with kObjectQuarantined), it is pinned out of the swap
// mix, and the processes that touch it take an ordinary fault delivered to their fault
// ports — corruption becomes a policy decision instead of undefined behaviour. Only
// SystemType::kGeneric objects are ever quarantined: kernel system objects are accessed on
// paths that cannot tolerate faults, and the injector never corrupts them.

#ifndef IMAX432_SRC_OS_PATROL_H_
#define IMAX432_SRC_OS_PATROL_H_

#include <cstdint>
#include <map>

#include "src/exec/kernel.h"

namespace imax432 {

struct PatrolStats {
  uint64_t sweeps_completed = 0;
  uint64_t descriptors_scanned = 0;   // allocated descriptors examined
  uint64_t objects_quarantined = 0;
  uint64_t checksum_failures = 0;     // identity checksum mismatches (check 1)
  uint64_t invariant_failures = 0;    // level-rule violations in access parts (check 2)
  uint64_t data_crc_failures = 0;     // silent data-part mutations (check 3)
  uint64_t shadow_refreshes = 0;      // CRC baselines (re)established
};

class ObjectPatrol {
 public:
  // Which integrity check condemned an object (kObjectQuarantined trace payload b).
  enum class CheckKind : uint8_t {
    kDescriptorChecksum = 0,
    kLevelInvariant = 1,
    kDataCrc = 2,
  };

  explicit ObjectPatrol(Kernel* kernel) : kernel_(kernel) {}

  ObjectPatrol(const ObjectPatrol&) = delete;
  ObjectPatrol& operator=(const ObjectPatrol&) = delete;

  // --- Synchronous interface (tests, host-side maintenance) ---

  // Runs one full sweep over the table to completion, outside virtual time.
  PatrolStats SweepNow();

  // --- Incremental interface (the daemon) ---

  // Starts a sweep at descriptor 0.
  void BeginSweep();
  // Examines up to `units` descriptors; returns true while the sweep is unfinished.
  bool Step(uint32_t units);
  bool sweep_in_progress() const { return sweeping_; }

  // Descriptors the daemon examines per native instruction.
  static constexpr uint32_t kUnitsPerStep = 256;

  // Builds the patrol daemon: a process looping { block on the request port; one full sweep
  // in increments of kUnitsPerStep; reply if the request carried a port }. Same shape as
  // GarbageCollector::SpawnDaemon; every message posted to the returned port triggers one
  // sweep.
  Result<AccessDescriptor> SpawnDaemon(uint8_t priority = 16);

  // Drops shadow CRC state for a reclaimed object (System's reclaim observer).
  void Forget(ObjectIndex index) { shadow_.erase(index); }

  const PatrolStats& stats() const { return stats_; }
  uint64_t work_units() const { return work_units_; }

 private:
  // Shadow baseline for data-part CRC checking. Valid only while both generation and epoch
  // still match the descriptor: either moving on means the contents legitimately changed
  // (slot reuse / mutator write) and the baseline is re-established instead of compared.
  struct Shadow {
    uint32_t generation = 0;
    uint32_t epoch = 0;
    uint32_t crc = 0;
  };

  // Examines one descriptor; quarantines on a failed check.
  void CheckOne(ObjectIndex index);
  void Quarantine(ObjectIndex index, CheckKind kind);
  uint32_t DataCrc(const ObjectDescriptor& descriptor) const;

  Kernel* kernel_;
  std::map<ObjectIndex, Shadow> shadow_;
  bool sweeping_ = false;
  uint32_t cursor_ = 0;
  PatrolStats stats_;
  uint64_t work_units_ = 0;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OS_PATROL_H_
