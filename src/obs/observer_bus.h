// ObserverBus: the one event stream every observer reads.
//
// The kernel and the subsystems (ports, memory managers, GC, patrol, filing, the fault
// injector) emit each transition once, as an ObsEvent whose kind is a TraceEventKind. The
// bus owns the observers and routes each event, through one closed switch, to those that
// consume it: the trace ring, the cycle profiler, the span tracer, the latency histograms
// and, once enabled, the race sanitizer and lifetime auditor. It also keeps the bookkeeping
// only they need: open port waits and domain-call residences, each computed once here.
// Observers never consume virtual time or change simulated state, so a run's timeline is
// bit-identical whatever is armed (tests/obs/observer_bus_test.cc).

#ifndef IMAX432_SRC_OBS_OBSERVER_BUS_H_
#define IMAX432_SRC_OBS_OBSERVER_BUS_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/arch/cycle_model.h"
#include "src/arch/types.h"
#include "src/obs/histogram.h"
#include "src/obs/profiler.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/sim/bus.h"

namespace imax432 {

class EventQueue;
class ObjectTable;

namespace analysis {
class LifetimeAuditor;
class RaceSanitizer;
}  // namespace analysis

// Timestamp meaning "the current virtual time" (every kind but kPreempt).
inline constexpr Cycles kObsNow = ~Cycles{0};

// One transition. `kind` says which fields carry meaning (see TraceEventKind); the ring
// records ts, cpu, process, a, b and c.
struct ObsEvent {
  TraceEventKind kind;
  Cycles ts = kObsNow;
  uint16_t cpu = kTraceNoProcessor;
  uint32_t process = kTraceNoProcess;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  uint32_t d = 0;
  uint64_t seq = 0;
  CycleBucket bucket = CycleBucket::kInterpreter;
  Cycles cycles = 0;  // kCharge, kDispatch: cycles before the bus transfer
  BusGrant grant{};   // kCharge, kDispatch: the bus transfer's wait/busy split
};

class ObserverBus {
 public:
  // `table` is read by the lifetime auditor's scope-exit scan; `clock` stamps events.
  ObserverBus(const ObjectTable* table, const EventQueue* clock);
  ~ObserverBus();
  ObserverBus(const ObserverBus&) = delete;
  ObserverBus& operator=(const ObserverBus&) = delete;

  // Routes `event` to every observer that consumes it. Returns the number of findings it
  // raised (races, lifetime violations).
  uint32_t Emit(const ObsEvent& event);
  // The same for the per-instruction kinds (kCharge, kAccess, kInstruction): `make()` builds
  // the event only when an armed observer reads `kind`, so with none armed the call costs
  // one predicted branch and no stores.
  template <typename Make>
  uint32_t Emit(TraceEventKind kind, const Make& make) {
    return Wanted(kind) ? Emit(make()) : 0;
  }

  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  LatencyHistograms& latency() { return latency_; }
  const LatencyHistograms& latency() const { return latency_; }
  CycleProfiler& profiler() { return profiler_; }
  const CycleProfiler& profiler() const { return profiler_; }
  SpanTracer& spans() { return spans_; }
  const SpanTracer& spans() const { return spans_; }
  // The dynamic race sanitizer and lifetime auditor; null until enabled.
  void EnableRaceSanitizer();
  analysis::RaceSanitizer* race_sanitizer() { return race_.get(); }
  void EnableLifetimeAuditor();
  analysis::LifetimeAuditor* lifetime_auditor() { return auditor_.get(); }

 private:
  struct BlockWait {
    Cycles start = 0;
    ObjectIndex port = kInvalidObjectIndex;
    bool is_send = false;
  };

  // False only for a per-instruction kind that no armed observer reads.
  bool Wanted(TraceEventKind kind) const {
    switch (kind) {
      case TraceEventKind::kCharge:
        return profiler_.enabled() || spans_.enabled();
      case TraceEventKind::kAccess:
        return race_ != nullptr;
      case TraceEventKind::kInstruction:
        return trace_.enabled();
      default:
        return true;
    }
  }
  // Bins `cycles` and the bus grant into the profiler and the process's current span.
  void Charge(const ObsEvent& event, CycleBucket bucket, Cycles now);

  const ObjectTable* table_;
  const EventQueue* clock_;
  TraceRecorder trace_;
  LatencyHistograms latency_;
  CycleProfiler profiler_;
  SpanTracer spans_;
  std::unique_ptr<analysis::RaceSanitizer> race_;
  std::unique_ptr<analysis::LifetimeAuditor> auditor_;
  // Open port waits by process index and open domain-call residences by callee context
  // index. Closed at unblock / return; dropped when the process faults or terminates, or
  // the object dies, so a reused index never pairs a stale start with a fresh end.
  std::map<ObjectIndex, BlockWait> block_waits_;
  std::map<ObjectIndex, Cycles> call_starts_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OBS_OBSERVER_BUS_H_
