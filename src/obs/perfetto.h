// Chrome / Perfetto trace_event exporter for the kernel event trace.
//
// Renders a TraceRecorder snapshot as the Chrome trace-event JSON format (the "traceEvents"
// array), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
//   - one thread track per processor, with a duration slice for every process residency
//     (dispatch -> preempt/block/idle) and a complete slice per domain call whose duration
//     is the calibrated switch cost (~65 us at 8 MHz);
//   - async slices for port waits (block -> unblock, one per waiting process);
//   - a dedicated GC track whose slices are the collector's whiten/mark/sweep phases;
//   - instants for sends, receives, allocations, faults, swaps, and instruction steps;
//   - kTrace log annotations on their own track.
// Timestamps are virtual microseconds (cycles / 8, the paper's 8 MHz clock).

#ifndef IMAX432_SRC_OBS_PERFETTO_H_
#define IMAX432_SRC_OBS_PERFETTO_H_

#include <string>
#include <vector>

#include "src/isa/disassembler.h"
#include "src/obs/trace.h"

namespace imax432 {

class SpanTracer;

// Exports the recorder's current contents. `symbols` (usually ProgramAnalyses::symbols())
// names ports, domains, and processes on the timeline; pass nullptr for bare indices.
std::string ExportChromeTrace(const TraceRecorder& trace, const SymbolTable* symbols = nullptr);

// Exports the span tracer's request trees (call SpanTracer::FlushOpen first): one thread
// track per process, an "X" complete slice per span carrying its id/parent/root and
// per-bucket cycle composition in args, and "s"/"f" flow events drawing the causal edge
// from each parent span to its children. One JSON event per line, so the span round-trip
// test can re-derive the tree without a JSON library.
std::string ExportSpanChromeTrace(const SpanTracer& spans,
                                  const SymbolTable* symbols = nullptr);

// Lower-level form for pre-captured snapshots.
std::string ExportChromeTrace(const std::vector<TraceEvent>& events,
                              const std::vector<std::pair<Cycles, std::string>>& annotations,
                              const SymbolTable* symbols = nullptr);

}  // namespace imax432

#endif  // IMAX432_SRC_OBS_PERFETTO_H_
