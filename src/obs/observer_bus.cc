#include "src/obs/observer_bus.h"

#include "src/analysis/effects.h"
#include "src/analysis/lifetime/auditor.h"
#include "src/analysis/races/sanitizer.h"
#include "src/arch/object_table.h"
#include "src/base/log.h"
#include "src/isa/disassembler.h"
#include "src/sim/event_queue.h"

namespace imax432 {

ObserverBus::ObserverBus(const ObjectTable* table, const EventQueue* clock)
    : table_(table), clock_(clock) {}

ObserverBus::~ObserverBus() = default;

void ObserverBus::EnableRaceSanitizer() {
  if (race_ == nullptr) race_ = std::make_unique<analysis::RaceSanitizer>();
}

void ObserverBus::EnableLifetimeAuditor() {
  if (auditor_ == nullptr) auditor_ = std::make_unique<analysis::LifetimeAuditor>();
}

uint32_t ObserverBus::Emit(const ObsEvent& e) {
  const Cycles now = clock_->now();
  const Cycles ts = e.ts == kObsNow ? now : e.ts;
  switch (e.kind) {
    case TraceEventKind::kProcessorOnline:
      profiler_.OnProcessorAdded(e.cpu, now);
      return 0;
    case TraceEventKind::kCharge:
      // Work on a GDP ends its idle period (a no-op unless it was parked).
      profiler_.CloseIdle(e.cpu, now);
      if (e.process == kTraceNoProcess) {
        profiler_.ChargeCpu(e.cpu, e.bucket, e.cycles);
        return 0;
      }
      Charge(e, profiler_.ResolveTag(e.process, e.bucket), now);
      if (e.a != kTraceNoProcess) {
        profiler_.SampleSite(e.a, e.b, e.cycles + e.grant.wait + e.grant.busy);
      }
      return 0;
    case TraceEventKind::kDispatch: {
      profiler_.CloseIdle(e.cpu, now);
      Charge(e, CycleBucket::kDispatch, now);
      const Cycles latency = e.cycles + e.grant.wait + e.grant.busy;
      latency_.dispatch_latency.Record(latency);
      trace_.Emit(e.kind, ts, e.cpu, e.process, static_cast<uint32_t>(latency));
      return 0;
    }
    case TraceEventKind::kIdle:
      profiler_.OpenIdle(e.cpu);
      break;
    case TraceEventKind::kProcessorRetired:
      profiler_.OnRetired(e.cpu, now);
      break;
    case TraceEventKind::kSpawn:
      if (race_ != nullptr) race_->OnProcessCreated(e.process);
      spans_.OnSpawn(e.a, e.process);
      return 0;
    case TraceEventKind::kSend:
      if (e.d == kObsExternal) {
        spans_.OnExternalSend(e.seq);
      } else if (e.d != kTraceNoProcess) {
        if (race_ != nullptr) race_->OnSend(e.d, e.seq);
        spans_.OnSend(e.d, e.seq, now);
      }
      break;
    case TraceEventKind::kReceive:
      if (e.d != kTraceNoProcess) {
        if (race_ != nullptr) race_->OnReceive(e.d, e.seq);
        spans_.OnReceive(e.d, e.seq, now);
      }
      break;
    case TraceEventKind::kHandoff:
      if (e.process == kObsExternal) {
        spans_.OnExternalHandoff(e.b, now);
        return 0;
      }
      if (race_ != nullptr) race_->OnHandoff(e.process, e.b);
      spans_.OnHandoff(e.process, e.b, now);
      // The message never touched a queue, so the port emitted nothing: record the transfer
      // pair here (depth 0: a handoff implies an empty queue).
      trace_.Emit(TraceEventKind::kSend, ts, e.cpu, e.process, e.a, 0, e.c);
      trace_.Emit(TraceEventKind::kReceive, ts, kTraceNoProcessor, e.b, e.a, 0, e.c);
      return 0;
    case TraceEventKind::kBlockSend:
    case TraceEventKind::kBlockReceive:
      // Only a blocked sender's wait sits on its request's critical path; the receiver's
      // wait for the *next* request ends its current episode.
      block_waits_[e.process] = {now, e.a, e.kind == TraceEventKind::kBlockSend};
      if (e.kind == TraceEventKind::kBlockReceive) spans_.OnBlockReceive(e.process, now);
      break;
    case TraceEventKind::kUnblock: {
      auto wait = block_waits_.find(e.process);
      if (wait == block_waits_.end()) return 0;  // not blocked at a port
      const Cycles waited = now - wait->second.start;
      latency_.port_wait.Record(waited);
      profiler_.ChargeProcess(e.process, CycleBucket::kPortWait, waited);
      if (wait->second.is_send) {
        spans_.ChargeCurrent(e.process, CycleBucket::kPortWait, waited, now);
      }
      trace_.Emit(e.kind, ts, kTraceNoProcessor, e.process, wait->second.port,
                  static_cast<uint32_t>(waited));
      block_waits_.erase(wait);
      return 0;
    }
    case TraceEventKind::kDomainCall:
      call_starts_[e.a] = now;
      spans_.OnDomainCall(e.process, now);
      break;
    case TraceEventKind::kDomainReturn: {
      auto start = call_starts_.find(e.a);
      if (start == call_starts_.end()) break;
      const Cycles residence = now - start->second;
      call_starts_.erase(start);
      latency_.domain_call.Record(residence);
      spans_.OnDomainReturn(e.process, now);
      trace_.Emit(e.kind, ts, e.cpu, e.process, e.a, static_cast<uint32_t>(residence));
      return 0;
    }
    case TraceEventKind::kFault:
      // A fault ends any blocking episode without a completed wait to record.
      block_waits_.erase(e.process);
      spans_.OnFault(e.process, now);
      break;
    case TraceEventKind::kTerminate:
      block_waits_.erase(e.process);
      spans_.OnTerminate(e.process, now);
      if (race_ != nullptr) race_->OnProcessRetired(e.process);
      break;
    case TraceEventKind::kAccess: {
      if (race_ == nullptr) return 0;
      const analysis::RaceRecord* race =
          race_->OnAccess(e.process, e.a, static_cast<analysis::ObjectPart>(e.c),
                          static_cast<analysis::AccessKind>(e.d), e.b, now);
      if (race == nullptr) return 0;
      trace_.Emit(TraceEventKind::kRaceDetected, ts, e.cpu, race->second_process,
                  race->object, race->second_pc, race->first_process);
      return 1;
    }
    case TraceEventKind::kAllocate:
      latency_.allocation.Record(cycles::CreateObjectCost(e.b, e.c));
      break;
    case TraceEventKind::kDestroy:
      // Every destruction path (explicit, bulk SRO, GC reclaim) ends here, so no state keyed
      // by the index outlives the object.
      if (race_ != nullptr) race_->OnObjectDestroyed(e.a);
      if (auditor_ != nullptr) auditor_->OnObjectDestroyed(e.a);
      block_waits_.erase(e.a);
      call_starts_.erase(e.a);
      break;
    case TraceEventKind::kDemote:
      if (auditor_ != nullptr) auditor_->OnDemoted(e.a, e.b, e.c, e.d);
      return 0;
    case TraceEventKind::kScopeExit: {
      if (auditor_ == nullptr) return 0;
      const auto violations = auditor_->AuditScopeExit(*table_, e.a, e.b);
      for (const analysis::LifetimeViolation& violation : violations) {
        trace_.Emit(TraceEventKind::kLifetimeViolation, ts, e.cpu, e.process,
                    violation.object, violation.holder, violation.alloc_pc);
        IMAX_LOG_ERROR(
            "lifetime audit: demoted object %u (segment %u pc %u) still referenced by "
            "object %u slot %u at scope exit",
            violation.object, violation.segment, violation.alloc_pc, violation.holder,
            violation.holder_slot);
      }
      return static_cast<uint32_t>(violations.size());
    }
    case TraceEventKind::kInstruction:
      // The interpreter's instruction dump: each step lands on the timeline, and its kTrace
      // log line in the ring's annotation channel through the sink System installs.
      if (!trace_.enabled() || GetLogSeverity() != LogSeverity::kTrace) return 0;
      IMAX_LOG_TRACE("cpu %u process %u pc %u %s", e.cpu, e.process, e.a,
                     OpcodeName(static_cast<Opcode>(e.b)));
      break;
    default:
      break;  // recorded in the ring only
  }
  trace_.Emit(e.kind, ts, e.cpu, e.process, e.a, e.b, e.c);
  return 0;
}

void ObserverBus::Charge(const ObsEvent& e, CycleBucket bucket, Cycles now) {
  const Cycles done = now + e.cycles + e.grant.wait + e.grant.busy;
  profiler_.Charge(e.cpu, e.process, bucket, e.cycles);
  profiler_.Charge(e.cpu, e.process, CycleBucket::kBusWait, e.grant.wait);
  profiler_.Charge(e.cpu, e.process, CycleBucket::kBusTransfer, e.grant.busy);
  spans_.ChargeCurrent(e.process, bucket, e.cycles, done);
  spans_.ChargeCurrent(e.process, CycleBucket::kBusWait, e.grant.wait, done);
  spans_.ChargeCurrent(e.process, CycleBucket::kBusTransfer, e.grant.busy, done);
}

}  // namespace imax432
