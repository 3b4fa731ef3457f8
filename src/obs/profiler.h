// CycleProfiler: cycle-exact attribution of every virtual cycle a GDP lives through.
//
// Every interval of a processor's timeline is charged into one CycleBucket
// (src/arch/cycle_model.h): instruction compute, dispatch machinery, bus wait/occupancy,
// swap service, fault-recovery gaps, idle parking, and post-retirement halt. The accounting
// is gap-free by construction — each per-CPU slot tracks `accounted_until`, the boundary up
// to which cycles have been binned, and the idle/halted closers absorb whatever remains — so
// after FlushOpenIntervals the per-CPU bucket sums equal (end - epoch_start) exactly. That
// identity is the profiler's correctness oracle (bench_profiler E17 asserts it to ±0).
//
// Pure observer: the profiler never touches virtual time and never emits trace events; the
// observer bus feeds it. Daemon processes (GC, patrol,
// fault service) are tagged so their interpreter cycles rebin under kGc / kFaultRecovery;
// tags are recorded unconditionally (boot-time, three entries) so enabling the profiler
// later still attributes daemons correctly.
//
// The hot-site table samples interpreter dispatch deterministically: every Nth charged
// instruction (N = sample_period, a plain counter — no host randomness, so two identical
// runs sample identical sites) records its (instruction segment, pc) and modeled duration.

#ifndef IMAX432_SRC_OBS_PROFILER_H_
#define IMAX432_SRC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/arch/cycle_model.h"
#include "src/arch/types.h"

namespace imax432 {

class CycleProfiler {
 public:
  struct CpuSlot {
    Cycles epoch_start = 0;      // when the GDP came online
    Cycles accounted_until = 0;  // boundary up to which cycles are binned
    bool idle_open = false;      // parked at the dispatching port
    bool halted = false;         // retired
    CycleBucketArray buckets{};
  };

  struct HotSite {
    uint64_t samples = 0;
    Cycles cycles = 0;  // summed modeled duration of the sampled instructions
  };

  static constexpr uint32_t kDefaultSamplePeriod = 64;
  static constexpr size_t kMaxHotSites = 1 << 16;

  void Enable(uint32_t sample_period = kDefaultSamplePeriod) {
    enabled_ = true;
    sample_period_ = sample_period == 0 ? 1 : sample_period;
  }
  bool enabled() const { return enabled_; }

  // Called for every GDP as it comes online, enabled or not (boot-time, cheap), so the
  // epoch baseline exists whenever profiling is armed.
  void OnProcessorAdded(uint16_t cpu, Cycles now) {
    if (cpus_.size() <= cpu) {
      cpus_.resize(cpu + 1u);
    }
    cpus_[cpu].epoch_start = now;
    cpus_[cpu].accounted_until = now;
  }

  // Tags a process so its interpreter cycles rebin under `bucket` (daemons). Recorded even
  // when disabled; ResolveTag only overrides the default kInterpreter attribution.
  void TagProcess(uint32_t process, CycleBucket bucket) { tags_[process] = bucket; }

  CycleBucket ResolveTag(uint32_t process, CycleBucket bucket) const {
    if (bucket != CycleBucket::kInterpreter || tags_.empty()) {
      return bucket;
    }
    auto it = tags_.find(process);
    return it == tags_.end() ? bucket : it->second;
  }

  void ChargeCpu(uint16_t cpu, CycleBucket bucket, Cycles cycles) {
    if (!enabled_ || cycles == 0 || cpu >= cpus_.size()) {
      return;
    }
    CpuSlot& slot = cpus_[cpu];
    slot.buckets[static_cast<size_t>(bucket)] += cycles;
    slot.accounted_until += cycles;
  }

  void ChargeProcess(uint32_t process, CycleBucket bucket, Cycles cycles) {
    if (!enabled_ || cycles == 0) {
      return;
    }
    processes_[process][static_cast<size_t>(bucket)] += cycles;
  }

  void Charge(uint16_t cpu, uint32_t process, CycleBucket bucket, Cycles cycles) {
    ChargeCpu(cpu, bucket, cycles);
    ChargeProcess(process, bucket, cycles);
  }

  // Idle bracketing: OpenIdle marks the GDP parked; CloseIdle bins everything since the
  // last charged boundary as kIdle. Charging idle at close (not open) makes the account
  // gap-free even if an unmodeled interval slipped between the park and the previous charge.
  void OpenIdle(uint16_t cpu) {
    if (!enabled_ || cpu >= cpus_.size()) {
      return;
    }
    cpus_[cpu].idle_open = true;
  }

  void CloseIdle(uint16_t cpu, Cycles now) {
    if (!enabled_ || cpu >= cpus_.size()) {
      return;
    }
    CpuSlot& slot = cpus_[cpu];
    if (!slot.idle_open) {
      return;
    }
    slot.idle_open = false;
    if (now > slot.accounted_until) {
      ChargeCpu(cpu, CycleBucket::kIdle, now - slot.accounted_until);
    }
  }

  // Processor retirement: close any open idle period; everything after `now` bins as
  // kHalted at flush time.
  void OnRetired(uint16_t cpu, Cycles now) {
    if (!enabled_ || cpu >= cpus_.size()) {
      return;
    }
    CloseIdle(cpu, now);
    cpus_[cpu].halted = true;
  }

  // Deterministic 1-in-N sampling of interpreter dispatch sites.
  void SampleSite(uint64_t segment, uint32_t pc, Cycles duration) {
    if (!enabled_) {
      return;
    }
    if (++sample_counter_ % sample_period_ != 0) {
      return;
    }
    ++samples_taken_;
    uint64_t key = (segment << 32) | pc;
    auto it = hot_sites_.find(key);
    if (it == hot_sites_.end()) {
      if (hot_sites_.size() >= kMaxHotSites) {
        ++samples_dropped_;
        return;
      }
      it = hot_sites_.emplace(key, HotSite{}).first;
    }
    ++it->second.samples;
    it->second.cycles += duration;
  }

  // Closes every open interval at quiescence: parked GDPs bin the tail as kIdle, retired
  // ones as kHalted, anything else (defensive) as kIdle. After this, CpuTotal(cpu) ==
  // end - epoch_start for every GDP that came online before profiling started.
  void FlushOpenIntervals(Cycles end) {
    if (!enabled_) {
      return;
    }
    for (size_t cpu = 0; cpu < cpus_.size(); ++cpu) {
      CpuSlot& slot = cpus_[cpu];
      if (end <= slot.accounted_until) {
        continue;
      }
      Cycles remainder = end - slot.accounted_until;
      CycleBucket bucket = slot.halted ? CycleBucket::kHalted : CycleBucket::kIdle;
      slot.buckets[static_cast<size_t>(bucket)] += remainder;
      slot.accounted_until = end;
      slot.idle_open = false;
    }
  }

  Cycles CpuTotal(uint16_t cpu) const {
    if (cpu >= cpus_.size()) {
      return 0;
    }
    Cycles total = 0;
    for (Cycles c : cpus_[cpu].buckets) {
      total += c;
    }
    return total;
  }

  // Bucket totals summed over every GDP.
  CycleBucketArray Totals() const {
    CycleBucketArray totals{};
    for (const CpuSlot& slot : cpus_) {
      for (size_t b = 0; b < kCycleBucketCount; ++b) {
        totals[b] += slot.buckets[b];
      }
    }
    return totals;
  }

  const std::vector<CpuSlot>& cpus() const { return cpus_; }
  const std::map<uint32_t, CycleBucketArray>& process_buckets() const { return processes_; }
  const std::map<uint64_t, HotSite>& hot_sites() const { return hot_sites_; }
  uint64_t samples_taken() const { return samples_taken_; }
  uint64_t samples_dropped() const { return samples_dropped_; }
  uint32_t sample_period() const { return sample_period_; }

 private:
  bool enabled_ = false;
  uint32_t sample_period_ = kDefaultSamplePeriod;
  uint64_t sample_counter_ = 0;
  uint64_t samples_taken_ = 0;
  uint64_t samples_dropped_ = 0;
  std::vector<CpuSlot> cpus_;
  std::map<uint32_t, CycleBucketArray> processes_;   // process index -> per-bucket cycles
  std::map<uint32_t, CycleBucket> tags_;             // daemon attribution overrides
  std::map<uint64_t, HotSite> hot_sites_;            // (segment << 32 | pc) -> samples
};

}  // namespace imax432

#endif  // IMAX432_SRC_OBS_PROFILER_H_
