// ProgramAnalyses: the static-analysis state kept beside the code the kernel loads.
//
// The kernel executes; this store analyses. It keeps one record per loaded instruction
// segment: how the program runs (process or domain entry), the AD the loader handed it (the
// seed that makes its port and object uses resolvable), and every per-program summary derived
// from them. The kernel records each load, gates loads through the verifier when
// verify-on-load is on, feeds the external-traffic facts it alone knows, and asks one runtime
// question (IsDemotable). The whole-system passes are tooling on top of the same records.
//
// Summaries are computed at load under verify-on-load, otherwise on the first analysis that
// needs them; either way from the record, so both paths seed a program identically. A
// program registered straight with the ProgramStore has no load record and is summarized as
// a process with no seed ("any object"): weaker, never wrong.

#ifndef IMAX432_SRC_ANALYSIS_PROGRAM_ANALYSES_H_
#define IMAX432_SRC_ANALYSIS_PROGRAM_ANALYSES_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/guards/guards.h"
#include "src/analysis/interference/interference.h"
#include "src/analysis/lifetime/lifetime.h"
#include "src/analysis/races/races.h"
#include "src/base/result.h"
#include "src/isa/disassembler.h"

namespace imax432 {

class ObjectTable;
class ProgramStore;
struct KernelStats;

namespace analysis {

// Everything known about one loaded instruction segment.
struct ProgramRecord {
  ProgramKind kind = ProgramKind::kProcess;
  AccessDescriptor seed;  // initial argument in a7 at load; null for domain entries
  // Filled when the program is summarized; its effect summary sits in the effect graph.
  LifetimeSummary lifetime;
  std::vector<uint32_t> demotable;  // sorted pcs of the context-local create_object sites
  InterferenceSummary interference;
  GuardSummary guards;
};

class ProgramAnalyses {
 public:
  // The verifier and summary counters are the kernel's (KernelStats) so its metrics group
  // keeps reporting them.
  ProgramAnalyses(const ObjectTable* table, const ProgramStore* programs, KernelStats* stats);

  ProgramAnalyses(const ProgramAnalyses&) = delete;
  ProgramAnalyses& operator=(const ProgramAnalyses&) = delete;

  // --- Kernel upkeep ---

  // The verify-on-load gate: runs the static capability verifier over a program about to
  // load as `kind` and fails with kVerificationFailed when it proves the program faults.
  // A process entry is verified at `entry_level` with `seed` resolved into seeded facts; a
  // domain entry is called from arbitrary levels with arbitrary arguments, so nothing is
  // seeded.
  Status Verify(const Program& program, ProgramKind kind, const AccessDescriptor& seed = {},
                std::optional<uint32_t> entry_level = std::nullopt);

  // Records a load of `segment`. A segment keeps its first record. With `summarize_now`
  // (verify-on-load) the summaries are computed at once, while the seed's object is live.
  void Record(ObjectIndex segment, ProgramKind kind, const AccessDescriptor& seed,
              bool summarize_now);

  // Drops the segment's record, effect summary and diagnostic name (its code was reclaimed
  // or replaced).
  void Forget(ObjectIndex segment);

  // True when the create_object at (segment, pc) was proven context-local.
  bool IsDemotable(ObjectIndex segment, uint32_t pc) const;

  // --- Whole-system analyses ---
  // Each first summarizes every program that has no summary yet (loaded with verify-on-load
  // off). Interference verdicts and guard certificates are consumed by no kernel path
  // (imax_lint --interference / --guards).

  SystemAnalysisReport AnalyzeSystem() { Complete(); return effect_graph_.Analyze(); }
  RaceAnalysisReport AnalyzeRaces() { Complete(); return analysis::AnalyzeRaces(effect_graph_); }
  LifetimeAnalysisReport AnalyzeLifetimes() {
    Complete();
    return analysis::AnalyzeLifetimes(effect_graph_, lifetime_summaries());
  }
  InterferenceAnalysisReport AnalyzeInterference() {
    Complete();
    return analysis::AnalyzeInterference(effect_graph_, interference_summaries());
  }
  GuardAnalysisReport AnalyzeGuards() {
    Complete();
    return analysis::AnalyzeGuards(effect_graph_, guard_summaries(), interference_summaries());
  }

  // The per-program effect summaries plus the external-traffic facts. Tests and tools may
  // mark additional external senders/receivers before analysing.
  SystemEffectGraph& effect_graph() { return effect_graph_; }

  // Per-segment summaries of every summarized program, copied out of the records: the
  // returned map is the caller's, so keep it (not a reference into it) past the call.
  std::map<ObjectIndex, LifetimeSummary> lifetime_summaries() const {
    return Collect(&ProgramRecord::lifetime);
  }
  std::map<ObjectIndex, InterferenceSummary> interference_summaries() const {
    return Collect(&ProgramRecord::interference);
  }
  std::map<ObjectIndex, GuardSummary> guard_summaries() const {
    return Collect(&ProgramRecord::guards);
  }

  // Object names used by analysis diagnostics and annotated disassembly. Name ports before
  // the programs using them are summarized: summaries render their disassembly then.
  SymbolTable& symbols() { return symbols_; }

 private:
  // Computes every summary of a registered program from its record.
  void Summarize(ObjectIndex segment, const Program& program, ProgramRecord& record);
  // Summarizes every registered program that has no summary yet.
  void Complete();

  template <typename Summary>
  std::map<ObjectIndex, Summary> Collect(Summary ProgramRecord::*member) const {
    std::map<ObjectIndex, Summary> summaries;
    for (const auto& [segment, record] : records_) {
      if (effect_graph_.HasProgram(segment)) summaries.emplace(segment, record.*member);
    }
    return summaries;
  }

  const ObjectTable* table_;
  const ProgramStore* programs_;
  KernelStats* stats_;
  std::map<ObjectIndex, ProgramRecord> records_;
  SystemEffectGraph effect_graph_;
  SymbolTable symbols_;
};

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_PROGRAM_ANALYSES_H_
