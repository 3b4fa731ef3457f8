#include "src/analysis/lifetime/auditor.h"

#include "src/arch/object_table.h"

namespace imax432 {
namespace analysis {

void LifetimeAuditor::OnDemoted(ObjectIndex object, ObjectIndex sro, ObjectIndex segment,
                                uint32_t pc) {
  demoted_[object] = Entry{sro, segment, pc};
  ++stats_.demoted_tracked;
}

void LifetimeAuditor::OnObjectDestroyed(ObjectIndex object) { demoted_.erase(object); }

std::vector<LifetimeViolation> LifetimeAuditor::AuditScopeExit(const ObjectTable& table,
                                                               ObjectIndex sro,
                                                               ObjectIndex owner_context) {
  ++stats_.scopes_audited;

  // The dying population: the tracked entries from this SRO, each a live object. They are
  // moved out: the caller bulk-destroys the SRO right after this audit.
  std::map<ObjectIndex, Entry> population;
  for (auto it = demoted_.begin(); it != demoted_.end();) {
    if (it->second.sro != sro) {
      ++it;
      continue;
    }
    population.emplace(it->first, it->second);
    it = demoted_.erase(it);
  }

  std::vector<LifetimeViolation> found;
  if (population.empty()) return found;

  table.ForEachAllocated(0, table.capacity(), [&](ObjectIndex holder) {
    if (holder == owner_context || population.count(holder) != 0) return;
    const ObjectDescriptor& descriptor = table.At(holder);
    ++stats_.objects_scanned;
    for (uint32_t slot = 0; slot < descriptor.access_count(); ++slot) {
      const AccessDescriptor& ad = descriptor.access[slot];
      if (ad.is_null()) continue;
      auto member = population.find(ad.index());
      if (member == population.end() || ad.generation() != table.At(ad.index()).generation) {
        continue;
      }
      LifetimeViolation violation;
      violation.object = member->first;
      violation.holder = holder;
      violation.holder_slot = slot;
      violation.segment = member->second.segment;
      violation.alloc_pc = member->second.pc;
      found.push_back(violation);
      ++stats_.violations;
    }
  });
  violations_.insert(violations_.end(), found.begin(), found.end());
  return found;
}

}  // namespace analysis
}  // namespace imax432
