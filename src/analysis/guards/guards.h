// Static guard-dominance analysis: which dynamic descriptor checks are provably redundant.
//
// The 432 model pays a descriptor-check tax on every instruction — rights sufficiency, data
// bounds, access-slot bounds, and the level rule — yet inside a basic block most of those
// checks are dominated by an equivalent or stronger check on the same AD register earlier in
// the block. The ADs themselves are immutable values (rights travel in the register, not in
// the object), and an object's data_length / access_count never change after creation, so a
// check that passed once cannot start failing until the register is overwritten or a
// synchronization point admits cross-process mutation of the *object's liveness*. This pass
// certifies exactly that redundancy (DESIGN.md §6.5).
//
// Phase 1 (GuardAnalyzer::Analyze) computes a per-program guard summary over the PR 2/PR 4
// CFG machinery: for every data / access-part touch, the set of dynamic checks the
// interpreter performs at that site (guard_check::* bits), and a block-local forward
// dominance dataflow proving which of those bits are subsumed on every path from block entry.
// Facts are tracked per AD register and reset at every block boundary (entering edges are
// not joined — strictly conservative), killed by any register overwrite, and killed en masse
// at every synchronization instruction (send / receive / call / return / destroy / os-call /
// native): a sync point may run the scheduler, and the window in which a fresh object is
// private to its creator ends there. create_object establishes exact facts (all generic
// rights, exact data length and slot count); a passed check establishes the facts it proved
// (the block faults and aborts otherwise), giving the classic "second identical check is
// free" dominance.
//
// Phase 2 (AnalyzeGuards) composes Phase 1 verdicts system-wide into per-(program, block)
// ElisionCertificates. The suite's zero-false-positive posture applies: a site survives only
// if its facts flow from a same-block create_object (the object is provably unpublished for
// the whole window — fresh sites), or if the site's object resolves uniquely and *no*
// summarized program writes that (object, part) per the PR 7 interference footprints while
// the system contains no opaque or unresolved program. Everything else is suppressed and
// counted by cause, never certified.
//
// The certificates are static verdicts only (imax_lint --guards): no kernel path consumes
// them, and every check stays dynamic in the addressing unit (DESIGN.md §6.5).

#ifndef IMAX432_SRC_ANALYSIS_GUARDS_GUARDS_H_
#define IMAX432_SRC_ANALYSIS_GUARDS_GUARDS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/deadlock.h"
#include "src/analysis/effects.h"
#include "src/analysis/interference/interference.h"
#include "src/arch/types.h"
#include "src/isa/program.h"

namespace imax432 {
namespace analysis {

// Dynamic check classes the interpreter performs at an access site. A site's `checks` mask
// records what the full layered path does; `elidable` records what a dominating check
// already proved.
namespace guard_check {
inline constexpr uint8_t kRights = 1u << 0;      // rights::Has(ad.rights(), required)
inline constexpr uint8_t kDataBounds = 1u << 1;  // offset + width <= data_length
inline constexpr uint8_t kSlotBounds = 1u << 2;  // slot < access_count
inline constexpr uint8_t kLevel = 1u << 3;       // store_ad level rule (never static)
}  // namespace guard_check

// Renders a check mask as "rights|data-bounds" (or "none").
std::string GuardCheckMaskName(uint8_t mask);

// Why a site's non-elidable check bits were suppressed (zero-false-positive accounting).
enum class GuardSuppression : uint8_t {
  kNone = 0,       // every check the site performs is elidable
  kOpaque,         // program has native steps — control flow and effects unknowable
  kDynamic,        // run-time offset/slot operand or non-constant width: bounds unprovable
  kUnproven,       // no dominating check established the needed facts by this point
  kLevel,          // the store_ad level rule depends on the stored value; never elidable
};
const char* GuardSuppressionName(GuardSuppression suppression);

// One guarded access site (load_data / store_data / load_ad / store_ad and their indexed
// variants), with the Phase 1 dominance verdict.
struct GuardSite {
  uint32_t pc = 0;
  uint32_t block = 0;        // CFG block id containing the site
  Opcode op = Opcode::kHalt;
  uint8_t checks = 0;        // guard_check bits the full interpreter path performs here
  uint8_t elidable = 0;      // subset proven dominated on every path from block entry
  // Site of the dominating instruction that first established the register's facts
  // (create_object or the first passed check). Valid when elidable != 0.
  uint32_t dominator_pc = 0;
  // Facts flow from a create_object in the same block: the object is unpublished (fresh
  // objects never appear in effects footprints) until the next sync point, which also kills
  // the facts — Phase 2 certifies these sites without any interference screen.
  bool fresh = false;
  // Unique resolved target per the effects footprint, or kInvalidObjectIndex (fresh or
  // multi-candidate or unresolved chain).
  ObjectIndex object = kInvalidObjectIndex;
  ObjectPart part = ObjectPart::kData;
  GuardSuppression suppression = GuardSuppression::kNone;
  std::string disasm;
};

// Per-cause suppression counters. Counts individual check *bits*, not sites, so
// checks_seen == checks_elidable + sum(suppressed_*).
struct GuardCounters {
  uint32_t checks_seen = 0;
  uint32_t checks_elidable = 0;
  uint32_t suppressed_opaque = 0;
  uint32_t suppressed_dynamic = 0;
  uint32_t suppressed_unproven = 0;
  uint32_t suppressed_level = 0;
};

// Phase 1 per-program summary.
struct GuardSummary {
  std::string program_name;
  std::vector<GuardSite> sites;  // ascending pc
  uint32_t block_count = 0;
  bool opaque = false;      // native steps: every check suppressed
  bool unresolved = false;  // some access chain did not resolve (effects bit)
  GuardCounters counters;
};

class GuardAnalyzer {
 public:
  // Computes the guard summary, deriving the effect summary internally.
  static GuardSummary Analyze(const Program& program, const EffectOptions& options = {});
  // Shares an already-computed effect summary (the ProgramAnalyses path: Summarize computes
  // effects once and derives lifetime + interference + guard summaries from it).
  static GuardSummary Analyze(const Program& program, const EffectOptions& options,
                              const EffectSummary& effects);
};

// --- Phase 2: whole-system composition -------------------------------------------------

// One certified elision: at `pc`, the checks in `mask` were proven by the instruction at
// `dominator_pc` and no intervening instruction (or foreign program) can invalidate them.
struct CertifiedCheck {
  uint32_t pc = 0;
  uint8_t mask = 0;
  uint32_t dominator_pc = 0;
  bool fresh = false;
};

// Per-(program, block) certificate: the checks of the block proven redundant.
struct ElisionCertificate {
  ObjectIndex segment = kInvalidObjectIndex;
  uint32_t block = 0;
  uint32_t begin = 0;  // [begin, end) pc range of the block
  uint32_t end = 0;
  std::vector<CertifiedCheck> checks;
};

struct GuardAnalysisReport {
  std::vector<ElisionCertificate> certificates;  // ascending (segment, block)
  uint32_t programs_analyzed = 0;
  uint32_t sites_seen = 0;
  uint32_t checks_seen = 0;
  uint32_t checks_elidable = 0;   // Phase 1 dominance verdicts
  uint32_t checks_certified = 0;  // surviving the Phase 2 interference screen
  uint32_t certified_fresh = 0;   // certified via the fresh-object exemption
  // Phase 2 suppression accounting (check bits that were elidable but not certified).
  uint32_t suppressed_interference = 0;  // some summarized program writes the (object, part)
  uint32_t suppressed_system_opaque = 0; // an opaque/unresolved program exists system-wide
  uint32_t suppressed_unresolved_object = 0;  // non-fresh site without a unique object
  GuardCounters phase1;  // aggregated Phase 1 counters
};

// Composes Phase 1 summaries into elision certificates. `interference` supplies the PR 7
// footprints used as the foreign-writer screen for non-fresh sites; `graph` supplies the
// system-opacity scan (any opaque or unresolved program suppresses every non-fresh
// elision — such code could publish or mutate anything).
GuardAnalysisReport AnalyzeGuards(const SystemEffectGraph& graph,
                                  const std::map<ObjectIndex, GuardSummary>& summaries,
                                  const std::map<ObjectIndex, InterferenceSummary>& interference);

// Renders the report for imax_lint --guards.
std::string FormatGuardReport(const GuardAnalysisReport& report,
                              const std::map<ObjectIndex, GuardSummary>& summaries);

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_GUARDS_GUARDS_H_
