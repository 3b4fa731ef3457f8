// Shared pieces of the host-performance benchmark: the host clock, the span log the
// traced run records around every call the host client makes into an emulator layer, the work
// meter that turns the layers' public stats() structs into per-round counts, and the
// workload interface.
//
// Nothing here hooks into src/: spans are recorded from the outside, at the layer's public
// entry points, so a span's self time is the time the client spent inside that layer's
// public call minus the time spent in nested calls it made itself.

#ifndef IMAX432_PERFBENCH_PERFBENCH_H_
#define IMAX432_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/os/system.h"

namespace perfbench {

using imax432::System;

// Host wall-clock time in nanoseconds (std::chrono::steady_clock). Spans and the length of
// the timed phase use it.
int64_t HostNs();
// CPU time of the calling thread in nanoseconds (CLOCK_THREAD_CPUTIME_ID). The end-to-end
// metrics use it, so time the host gives to other work is not charged to the emulator.
int64_t CpuNs();

// Every public entry point the client times. The text before the first '.' of the name is
// the src/ module (layer) the call belongs to.
enum class SpanName : uint8_t {
  kRound,             // bench: one closed-loop round (the client's own code is its self time)
  kOsBoot,            // os: System::System on a fresh device
  kOsSpawn,           // os: System::Spawn
  kOsTypes,           // os: TypeManagerFacility calls (CreateTypeDefinition, TypeIdOf)
  kExecRun,           // exec: run to idle (EventQueue::RunUntilIdle via the kernel)
  kExecCreateDomain,  // exec: Kernel::CreateDomain / ProgramStore::Register
  kIpcCreatePort,     // ipc: PortSubsystem::CreatePort
  kIpcPost,           // ipc: Kernel::PostMessage
  kIpcDequeue,        // ipc: PortSubsystem::Dequeue
  kMemoryCreate,      // memory: CreateObject / CreateTypedObject
  kMemoryDestroy,     // memory: DestroyObject
  kArchRead,          // arch: AddressingUnit reads
  kArchWrite,         // arch: AddressingUnit writes
  kGcRequest,         // gc: System::RequestCollection
  kGcCollectNow,      // gc: GarbageCollector::CollectNow
  kFilingFile,        // filing: ObjectStore::File
  kFilingRetrieve,    // filing: ObjectStore::Retrieve
  kFilingDigest,      // filing: ObjectStore::StateDigest (the durability oracle)
  kFilingPowerCut,    // filing: StableStore::PowerCut
  kFilingRecover,     // filing: System::System on a cut device (boot + journal replay)
  kObsCriticalPath,   // obs: AnalyzeCriticalPath
  kObsMetrics,        // obs: MetricsRegistry::Collect
  kCount,
};
constexpr size_t kSpanNameCount = static_cast<size_t>(SpanName::kCount);
const char* SpanNameText(SpanName name);

// Round id carried by spans recorded during set-up and after the timed phase.
constexpr uint32_t kNoRound = 0xffffffffu;

struct Span {
  SpanName name = SpanName::kRound;
  uint32_t id = 0;      // 1-based, unique within the run
  uint32_t parent = 0;  // id of the enclosing span; 0 = none
  uint32_t round = kNoRound;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per-name totals folded out of closed rounds, so a long traced run holds only the spans of
// the round in flight plus a bounded sample for export.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  // First kMaxDurationSamples durations of spans in timed rounds (for the names called only
  // outside rounds, of those calls).
  std::vector<float> durations_us;
};

class SpanLog {
 public:
  static constexpr size_t kMaxDurationSamples = 1 << 20;
  static constexpr size_t kMaxExportedSpans = 1 << 16;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_round(uint32_t round) { round_ = round; }

  // Opens a span under the innermost open one; returns its id (0 when disabled).
  uint32_t Open(SpanName name);
  void Close(uint32_t id);
  // Folds the finished spans into the per-name totals and keeps the first
  // kMaxExportedSpans for export. Call whenever no span is open.
  void Flush();

  const SpanTotals& totals(SpanName name) const {
    return totals_[static_cast<size_t>(name)];
  }
  const std::vector<Span>& exported() const { return exported_; }

 private:
  bool enabled_ = false;
  uint32_t round_ = kNoRound;
  std::vector<Span> open_;        // spans since the last Flush, in id order
  uint32_t flushed_ = 0;          // spans folded by earlier Flush calls
  std::vector<uint32_t> stack_;   // ids of the open spans, innermost last
  SpanTotals totals_[kSpanNameCount];
  std::vector<Span> exported_;
};

// RAII span: records the enclosing call when the log is enabled.
class Scope {
 public:
  Scope(SpanLog& log, SpanName name) : log_(log), id_(log.Open(name)) {}
  ~Scope() { log_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  uint32_t id_;
};

// Work counters read from the layers' public stats() structs.
struct Counters {
  uint64_t instructions = 0;
  uint64_t dispatches = 0;
  uint64_t domain_calls = 0;
  uint64_t blocks = 0;
  uint64_t messages = 0;  // queued messages plus direct handoffs
  uint64_t handoffs = 0;
  uint64_t objects_created = 0;
  uint64_t gc_cycles = 0;
  uint64_t gc_scanned = 0;
  uint64_t gc_reclaimed = 0;
  uint64_t gc_work_units = 0;
  uint64_t journal_bytes = 0;
  uint64_t journal_syncs = 0;
  uint64_t journal_checkpoints = 0;
  uint64_t mutations = 0;  // journaled filing mutations
  uint64_t virtual_cycles = 0;
  uint64_t bus_busy = 0;
  uint64_t bus_wait = 0;
  uint64_t spans = 0;  // spans the emulator's own SpanTracer created
  // Not read from stats(): added by the client as the work happens.
  uint64_t events = 0;
  uint64_t recoveries = 0;
  uint64_t replayed_records = 0;

  void Add(const Counters& after, const Counters& before);
};

// Accumulates counter deltas over rounds. A round is bracketed by Begin/End on the same
// System; a workload that replaces its System mid-round ends the old one and begins the new
// one itself.
class Meter {
 public:
  void Begin(System& system);
  void End(System& system);
  Counters& totals() { return totals_; }

 private:
  Counters start_;
  Counters totals_;
};

// What a workload may use while it runs: the span log, the work meter and the check log.
struct Env {
  SpanLog spans;
  Meter meter;
  uint64_t failed_checks = 0;

  // Returns `ok`; a failed check is counted and the first few are reported on stderr.
  bool Check(bool ok, const char* what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Boots the system, builds its programs and objects and spawns its processes.
  virtual void Setup() = 0;
  // One closed-loop round: post the seeded inputs, run to idle, drain and check outputs.
  // Returns false when any output check failed; the round then counts as a failed op.
  virtual bool Round() = 0;
  virtual System& system() = 0;
  // True when the round just run carried a garbage-collection request.
  virtual bool collection_round() const { return false; }
  // Largest object-table live count seen right after a collection (0 when none ran).
  virtual uint32_t live_after_gc() const { return 0; }
  // Folds workload state the stats() structs do not show into the fingerprint.
  virtual uint64_t StateFold() { return 0; }
};

// Known workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();
// Null for an unknown name. `seed` drives every generated input. `observed` arms the cycle
// profiler and span tracer (SystemConfig::profile and span_trace) on every System it boots.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, Env* env,
                                       bool observed);

// Runs the machine until no event remains, inside an exec.run span, and meters the events.
void RunToIdle(System& system, Env& env);

}  // namespace perfbench

#endif  // IMAX432_PERFBENCH_PERFBENCH_H_
