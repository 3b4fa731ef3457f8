// SpanTracer: Dapper-style causal request tracing over the port mechanism.
//
// A *span* is one contiguous episode of a process working on behalf of one causal root
// request. The trace context — root request id + parent span id — rides with messages: a
// send stamps the port-subsystem transfer sequence of each enqueue with the sender's
// current span, the receive resolves the stamp at dequeue and opens a child span in the
// receiver, and the direct-handoff fast path links sender to receiver without touching the
// queue. Domain calls push nested spans; process spawn inherits the parent's context for
// the child's first span; traffic injected from outside the simulation (PostMessage — boot
// code, fault delivery, tests) starts a fresh root.
//
// Per-span cycle composition reuses the profiler's CycleBucket taxonomy: every charge feeds
// each charged instruction into the executing process's current span, so a completed span
// tree carries exactly where its latency went. Critical-path extraction
// (src/obs/critical_path.h) and the Perfetto flow export (src/obs/perfetto.h) consume the
// finished trees.
//
// Pure observer: no trace events, no virtual-time effect; one predicted branch per hook
// when disabled. All ids are deterministic counters, so two identical runs produce
// identical span trees — the PR 5 replay fingerprint stays bit-identical with tracing on.

#ifndef IMAX432_SRC_OBS_SPAN_H_
#define IMAX432_SRC_OBS_SPAN_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/arch/cycle_model.h"
#include "src/arch/types.h"
#include "src/obs/histogram.h"

namespace imax432 {

struct SpanRecord {
  uint64_t id = 0;      // 1-based; 0 is "no span"
  uint64_t parent = 0;  // parent span id; 0 = root span of its request
  uint64_t root = 0;    // root request id (shared by the whole causal tree)
  uint32_t process = 0xffffffff;
  Cycles start = 0;
  Cycles end = 0;       // last activity; authoritative once `closed`
  bool closed = false;
  CycleBucketArray cycles{};
};

class SpanTracer {
 public:
  static constexpr uint32_t kDefaultCapacity = 1 << 20;

  void Enable(uint32_t capacity = kDefaultCapacity);
  bool enabled() const { return enabled_; }

  // --- Observer-bus hooks (all no-ops when disabled) ---

  // spawn: the child's first span will parent under the spawner's current span.
  void OnSpawn(uint32_t parent_process, uint32_t child_process);
  // send (queued): stamp the enqueued transfer with the sender's current span.
  void OnSend(uint32_t process, uint64_t transfer_seq, Cycles ts);
  // receive (dequeued): close the receiver's current span, open a child of the stamp
  // (or a fresh root for an unstamped message).
  void OnReceive(uint32_t process, uint64_t transfer_seq, Cycles ts);
  // handoff: message handed straight to a blocked receiver.
  void OnHandoff(uint32_t sender, uint32_t receiver, Cycles ts);
  // Kernel::PostMessage: traffic from outside the simulation starts a fresh root request.
  void OnExternalSend(uint64_t transfer_seq);
  void OnExternalHandoff(uint32_t receiver, Cycles ts);
  // block-receive: blocking on an empty port ends the receiver's current episode (the wait for
  // the *next* request is not part of this one).
  void OnBlockReceive(uint32_t process, Cycles ts);
  // Domain call/return nesting.
  void OnDomainCall(uint32_t process, Cycles ts);
  void OnDomainReturn(uint32_t process, Cycles ts);
  // Fault delivery / termination close the process's whole span stack.
  void OnFault(uint32_t process, Cycles ts);
  void OnTerminate(uint32_t process, Cycles ts);

  // charge: bin `cycles` into the process's current span (lazily opening a root span
  // for processes running outside any request context), and advance its last activity.
  void ChargeCurrent(uint32_t process, CycleBucket bucket, Cycles cycles, Cycles ts);

  // Closes every still-open span (end stays at last activity). Call at quiescence before
  // critical-path analysis or export.
  void FlushOpen();

  // --- Introspection ---

  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t spans_created() const { return spans_created_; }
  uint64_t roots_created() const { return roots_created_; }
  uint64_t dropped() const { return dropped_; }

  // End-to-end root-request latencies, filled by AnalyzeCriticalPath; federated into
  // MetricsRegistry as "request_latency".
  Histogram& latency() { return latency_; }
  const Histogram& latency() const { return latency_; }

 private:
  struct Stamp {
    uint64_t root = 0;
    uint64_t parent = 0;  // 0: receiver opens the root span of this request
  };

  // Opens a span for `process` (0 on capacity overflow) and pushes it on the stack.
  uint64_t OpenSpan(uint32_t process, uint64_t parent, uint64_t root, Cycles ts);
  // Current span of `process`, opening a root (or spawn-inherited) span if none is active.
  uint64_t EnsureActive(uint32_t process, Cycles ts);
  void CloseTop(uint32_t process, Cycles ts);
  SpanRecord* Find(uint64_t id) {
    return id == 0 || id > spans_.size() ? nullptr : &spans_[id - 1];
  }

  bool enabled_ = false;
  uint32_t capacity_ = kDefaultCapacity;
  uint64_t next_span_ = 1;
  uint64_t next_root_ = 1;
  uint64_t spans_created_ = 0;
  uint64_t roots_created_ = 0;
  uint64_t dropped_ = 0;
  std::vector<SpanRecord> spans_;
  std::map<uint32_t, std::vector<uint64_t>> stacks_;  // process -> open span ids
  std::map<uint64_t, Stamp> inflight_;                // transfer seq -> trace context
  std::map<uint32_t, Stamp> pending_parent_;          // spawned child -> inherited context
  Histogram latency_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OBS_SPAN_H_
