// Dynamic lifetime auditor: the ground-truth cross-check for demotion verdicts.
//
// The static pass (lifetime.h) proves sites context-local; the kernel then allocates them
// from a per-context demote SRO, marks them GC-exempt, and bulk-destroys the SRO at context
// exit. This auditor validates that bargain against the concrete execution
// (SystemConfig::lifetime_audit): the observer bus registers every demoted allocation, and at
// each scope exit — immediately before the demote SRO dies — the auditor flat-scans every other
// live object's access part for an AD still naming a member of the dying population. Any hit
// is a violation: the static analysis called an escaping site demotable, and the bulk
// destroy is about to turn a live AD dangling (the generation check would fault it on use;
// the auditor catches the lie at its source). The bus records a kLifetimeViolation trace
// event per hit. Every destruction path reports the object (OnObjectDestroyed), so a
// tracked entry always names a live object.

#ifndef IMAX432_SRC_ANALYSIS_LIFETIME_AUDITOR_H_
#define IMAX432_SRC_ANALYSIS_LIFETIME_AUDITOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/arch/types.h"

namespace imax432 {

class ObjectTable;

namespace analysis {

// One demoted object found referenced from outside its dying population.
struct LifetimeViolation {
  ObjectIndex object = kInvalidObjectIndex;   // the demoted object
  ObjectIndex holder = kInvalidObjectIndex;   // live object whose access part names it
  uint32_t holder_slot = 0;
  ObjectIndex segment = kInvalidObjectIndex;  // program the allocation site lives in
  uint32_t alloc_pc = 0;                      // its create_object pc
};

struct LifetimeAuditorStats {
  uint64_t demoted_tracked = 0;   // registrations seen
  uint64_t scopes_audited = 0;    // scope exits scanned
  uint64_t objects_scanned = 0;   // live objects examined across all audits
  uint64_t violations = 0;
};

class LifetimeAuditor {
 public:
  // Registers one demoted allocation. `sro` is the demote SRO it came from; (segment, pc)
  // identify the allocation site for diagnostics.
  void OnDemoted(ObjectIndex object, ObjectIndex sro, ObjectIndex segment, uint32_t pc);

  // A destroyed object leaves the tracked set (its slot may be reused).
  void OnObjectDestroyed(ObjectIndex object);

  // Scans for ADs into the population demoted from `sro`, excluding population members
  // themselves and `owner_context` (the returning context's registers legally still name
  // its own demoted objects — both die together). Returns the violations found by this
  // audit; they are also accumulated in violations(). Tracked entries for the population
  // are dropped: the caller destroys the SRO immediately after.
  std::vector<LifetimeViolation> AuditScopeExit(const ObjectTable& table, ObjectIndex sro,
                                                ObjectIndex owner_context);

  const std::vector<LifetimeViolation>& violations() const { return violations_; }
  const LifetimeAuditorStats& stats() const { return stats_; }

 private:
  struct Entry {
    ObjectIndex sro = kInvalidObjectIndex;
    ObjectIndex segment = kInvalidObjectIndex;
    uint32_t pc = 0;
  };

  std::map<ObjectIndex, Entry> demoted_;
  std::vector<LifetimeViolation> violations_;
  LifetimeAuditorStats stats_;
};

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_LIFETIME_AUDITOR_H_
