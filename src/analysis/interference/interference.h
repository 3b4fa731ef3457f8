// Static interference and immutability analysis over object footprints.
//
// The paper's access-descriptor discipline makes every object touch statically visible:
// programs reach storage only through typed ADs with explicit rights, so a may-analysis over
// the ISA stream bounds everything a process can read or write. This pass turns that
// discipline into the two soundness facts the fast-interpreter work (ROADMAP item 1) needs:
// which AD→descriptor translations are invariant between object-table mutations (safe to
// cache without invalidation), and which process pairs can never touch the same object
// between bus-synchronization points (safe to execute with lookahead).
//
// Phase 1 (InterferenceAnalyzer::Analyze) computes, per program, an object-footprint summary
// over the existing CFG/effects infrastructure: every resolved data / access-part touch from
// the bounded move/load chains of effects.h, tagged with its *inter-sync region* — the
// minimum number of synchronization instructions (send / receive / domain call / return /
// destroy / OS call) executed on any path from entry to the site. Region r is a sound window
// fact: an access tagged r cannot execute before the process's r-th synchronization point.
// Each write site additionally carries a publication fact reused from the `sends_after`
// greatest-fixpoint machinery: a write whose every path to exit performs a blocking send is
// "published" — the basis of the immutable-after-publication certificate tier.
//
// Phase 2 (AnalyzeInterference) composes the footprints system-wide through the PR 2
// SystemEffectGraph (domain callees fold into their callers) and yields:
//
//   pairwise verdicts — for every process pair: kIndependent (no conflicting overlap:
//       neither may write an object the other may touch), kInterfering (a conflicting
//       overlap with no message path between the pair in either direction), or kSuppressed
//       (opacity / unresolved chains / a communication path that orders the overlap).
//       Independence claims license parallel execution, so they follow the suite's
//       zero-false-positive rule: both programs must be fully resolved and non-opaque.
//   cacheability report — per (object, part): kImmutable (no summarized program ever writes
//       it), kPublishedOnly (every write is publication-ordered and every foreign read is
//       receive-gated), or kMutable. Immutable certificates carry a caveat bit whenever any
//       opaque or unresolved program exists in the system — such code could write anything.
//
// The verdicts are static only (imax_lint --interference): no kernel path consumes them,
// and the translation cache (arch/xlat_cache.h) revalidates every hit (DESIGN.md §6.4).
//
// Soundness posture (DESIGN.md §6.4): kInterfering and kIndependent are claimed only from
// fully resolved summaries; everything else is suppressed and counted, never reported.

#ifndef IMAX432_SRC_ANALYSIS_INTERFERENCE_INTERFERENCE_H_
#define IMAX432_SRC_ANALYSIS_INTERFERENCE_INTERFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/effects.h"
#include "src/arch/types.h"
#include "src/isa/program.h"

namespace imax432 {
namespace analysis {

// One resolved object touch, tagged with the inter-sync region it executes in.
struct FootprintEntry {
  AccessKind kind = AccessKind::kRead;
  ObjectPart part = ObjectPart::kData;
  uint32_t pc = 0;
  // Minimum number of sync instructions executed on any path from entry to this site: the
  // site cannot run before the process's region-th synchronization point.
  uint32_t region = 0;
  ObjectIndex object = kInvalidObjectIndex;
  // Write only: every path from this site to exit performs a blocking send (non-empty
  // sends_after) — the write is publication-ordered.
  bool published = false;
  std::string disasm;
};

struct InterferenceSummary {
  std::string program_name;
  std::vector<FootprintEntry> footprint;  // resolved touches, ascending pc
  uint32_t region_count = 1;              // distinct inter-sync regions (>= 1)
  uint32_t sync_count = 0;                // synchronization instructions in the program
  bool opaque = false;                    // native steps / unknown OS services
  bool unresolved = false;                // some access chain did not resolve
  bool may_not_terminate = false;

  bool Reads(ObjectIndex object, ObjectPart part) const;
  bool Writes(ObjectIndex object, ObjectPart part) const;
  // True when (object, part) is written and every write to it is publication-ordered.
  bool WritesPublished(ObjectIndex object, ObjectPart part) const;
};

class InterferenceAnalyzer {
 public:
  // Computes the footprint summary, deriving the effect summary internally.
  static InterferenceSummary Analyze(const Program& program, const EffectOptions& options = {});
  // Shares an already-computed effect summary (the ProgramAnalyses path: Summarize computes
  // effects once and derives lifetime + interference summaries from it).
  static InterferenceSummary Analyze(const Program& program, const EffectOptions& options,
                                     const EffectSummary& effects);
};

// --- Phase 2: whole-system composition -------------------------------------------------

enum class PairVerdict : uint8_t { kIndependent, kInterfering, kSuppressed };

struct InterferenceVerdict {
  std::string first_program;   // name-sorted pair
  std::string second_program;
  PairVerdict verdict = PairVerdict::kSuppressed;
  // Conflict witnesses: objects one side may write while the other touches them. Sorted.
  std::vector<ObjectIndex> shared;
  // Rendered, disassembly-anchored diagnostic (kInterfering only).
  std::string message;
};

enum class CacheGrade : uint8_t {
  kImmutable,      // no summarized program writes this (object, part)
  kPublishedOnly,  // all writes publication-ordered, all foreign reads receive-gated
  kMutable,        // writes without publication discipline
};
const char* CacheGradeName(CacheGrade grade);

struct CacheCertificate {
  ObjectIndex object = kInvalidObjectIndex;
  ObjectPart part = ObjectPart::kData;
  CacheGrade grade = CacheGrade::kMutable;
  uint32_t readers = 0;  // programs that may read it
  uint32_t writers = 0;  // programs that may write it
  // Grade is kImmutable but an opaque / unresolved program exists somewhere in the system:
  // such code could write this object without appearing in any summary.
  bool caveat = false;
};

struct InterferenceAnalysisReport {
  std::vector<InterferenceVerdict> verdicts;   // one per process pair, name-sorted
  std::vector<CacheCertificate> certificates;  // cacheability report, by (object, part)
  uint32_t programs_analyzed = 0;
  uint32_t objects_seen = 0;       // distinct objects in resolved footprints
  uint32_t regions_analyzed = 0;   // total inter-sync regions over all summaries
  uint32_t pairs_independent = 0;
  uint32_t pairs_read_sharing = 0; // independent pairs that share read-only objects
  uint32_t pairs_interfering = 0;
  uint32_t pairs_suppressed = 0;
  uint32_t suppressed_by_opacity = 0;
  uint32_t suppressed_by_unresolved = 0;
  uint32_t suppressed_by_communication = 0;
  uint32_t certified_immutable = 0;    // kImmutable, no caveat
  uint32_t certified_with_caveat = 0;  // kImmutable shape, opaque/unresolved code present
  uint32_t certified_published = 0;
  uint32_t uncertified = 0;            // kMutable
  uint32_t opaque_programs = 0;
  uint32_t unresolved_programs = 0;

  bool ok() const { return pairs_interfering == 0; }
};

// One report as text: interfering-pair blocks plus a certificate/verdict roll-up ("" when
// the report is clean and empty).
std::string FormatInterferenceReport(const InterferenceAnalysisReport& report);

// Composes per-program footprints with the whole-system effect graph. `summaries` is keyed
// by instruction-segment index like the graph's program map; graph programs without an
// interference summary still participate (their effect summaries carry the footprints and
// opacity bits — the summary adds only region structure to diagnostics).
InterferenceAnalysisReport AnalyzeInterference(
    const SystemEffectGraph& graph,
    const std::map<ObjectIndex, InterferenceSummary>& summaries);

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_INTERFERENCE_INTERFERENCE_H_
