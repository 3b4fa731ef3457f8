// MetricsRegistry: one Collect() over every stats() struct in the system.
//
// Each iMAX package keeps its own aggregate counters (KernelStats, PortStats, GcStats, ...).
// The registry federates them behind named provider callbacks so a tool, test, or monitor
// takes one snapshot — counters plus the machine's cycle-latency histograms — and serializes
// it to JSON without knowing the package zoo. The System-constructor overload registers
// everything the assembled system exposes; packages used à la carte (schedulers) are added
// by the caller through the same CountersFor overloads.

#ifndef IMAX432_SRC_OBS_METRICS_H_
#define IMAX432_SRC_OBS_METRICS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/types.h"
#include "src/obs/histogram.h"

namespace imax432 {

struct KernelStats;
struct PortStats;
struct GcStats;
struct MemoryStats;
struct SchedulerStats;
struct ProcessManagerStats;
struct FilingStats;
struct JournalStats;
struct PatrolStats;
struct XlatCacheStats;
class System;

// Ordered name -> value pairs; a vector (not a map) so serialization order is declaration
// order, which keeps JSON diffs stable.
using CounterMap = std::vector<std::pair<std::string, uint64_t>>;

// Flatteners for every stats() struct in the tree. Shared by the registry and ad-hoc
// callers (Introspection, tools).
CounterMap CountersFor(const KernelStats& stats);
CounterMap CountersFor(const PortStats& stats);
CounterMap CountersFor(const GcStats& stats);
CounterMap CountersFor(const MemoryStats& stats);
CounterMap CountersFor(const SchedulerStats& stats);
CounterMap CountersFor(const ProcessManagerStats& stats);
CounterMap CountersFor(const FilingStats& stats);
CounterMap CountersFor(const JournalStats& stats);
CounterMap CountersFor(const PatrolStats& stats);
CounterMap CountersFor(const XlatCacheStats& stats);

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  Cycles sum = 0;
  Cycles min = 0;
  Cycles max = 0;
  Cycles p50 = 0;
  Cycles p95 = 0;
  Cycles p99 = 0;
  Cycles p999 = 0;
  std::vector<uint64_t> buckets;  // trailing empty buckets trimmed
};

struct MetricsSnapshot {
  Cycles now = 0;
  std::vector<std::pair<std::string, CounterMap>> groups;
  std::vector<HistogramSnapshot> histograms;

  // {"now_cycles":N, "counters":{group:{name:value,...},...},
  //  "histograms":{name:{count,sum,min,max,p50,p95,p99,buckets:[...]},...}}
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  using Provider = std::function<CounterMap()>;

  MetricsRegistry() = default;

  // Registers every stats() source the assembled System exposes — kernel, ports, gc,
  // memory, process manager, machine (bus + trace) — plus the machine's four latency
  // histograms. The System must outlive the registry.
  explicit MetricsRegistry(System* system);

  void Add(std::string group, Provider provider);
  // The histogram must outlive the registry; it is re-read at every Collect().
  void AddHistogram(std::string name, const Histogram* histogram);
  void SetClock(std::function<Cycles()> clock) { clock_ = std::move(clock); }

  MetricsSnapshot Collect() const;

 private:
  std::function<Cycles()> clock_;
  std::vector<std::pair<std::string, Provider>> providers_;
  std::vector<std::pair<std::string, const Histogram*>> histograms_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OBS_METRICS_H_
