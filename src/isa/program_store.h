// ProgramStore: instruction segments.
//
// Code on the 432 lives in instruction-segment objects referenced from domains and contexts.
// The emulator keeps the decoded instruction vector in a side table keyed by the instruction
// segment's object index; the object itself (type kInstructionSegment) carries the
// architectural identity — rights, level, GC reachability — while the store carries content.

#ifndef IMAX432_SRC_ISA_PROGRAM_STORE_H_
#define IMAX432_SRC_ISA_PROGRAM_STORE_H_

#include <functional>
#include <map>

#include "src/isa/program.h"
#include "src/memory/memory_manager.h"
#include "src/sim/machine.h"

namespace imax432 {

class ProgramStore {
 public:
  ProgramStore(Machine* machine, MemoryManager* memory) : machine_(machine), memory_(memory) {}

  // Creates an instruction-segment object for `program` and returns an AD for it. The data
  // part holds the instruction count (read-only metadata for diagnostics).
  Result<AccessDescriptor> Register(ProgramRef program) {
    IMAX_ASSIGN_OR_RETURN(
        AccessDescriptor ad,
        memory_->CreateObject(memory_->global_heap(), SystemType::kInstructionSegment,
                              /*data_bytes=*/8, /*access_slots=*/0, rights::kRead));
    IMAX_RETURN_IF_FAULT(machine_->memory().Write(
        machine_->table().At(ad.index()).data_base, 4, program->size()));
    programs_[ad.index()] = std::move(program);
    ++version_;
    return ad;
  }

  // Looks up the program behind an instruction-segment AD.
  Result<ProgramRef> Fetch(const AccessDescriptor& ad) const {
    IMAX_ASSIGN_OR_RETURN(const ObjectDescriptor* descriptor,
                          machine_->table().Resolve(ad));
    if (descriptor->type != SystemType::kInstructionSegment) {
      return Fault::kTypeMismatch;
    }
    auto it = programs_.find(ad.index());
    if (it == programs_.end()) {
      return Fault::kNotFound;
    }
    return it->second;
  }

  // Fetch through a processor's translation cache (the interpreter's per-step path). A hit
  // skips the table resolve and the map lookup; it rechecks exactly what Fetch checks
  // (liveness, generation, segment type) plus the two content witnesses (the descriptor's
  // data_epoch and version()), so it returns what Fetch would. The pointer stays valid
  // until Forget or Replace drops the program.
  Result<const Program*> FetchCached(XlatCache* cache, const AccessDescriptor& ad) const {
    XlatEntry& entry = cache->Probe(ad.index());
    if (entry.program != nullptr && entry.index == ad.index() &&
        entry.generation == ad.generation()) {
      const ObjectDescriptor* descriptor = entry.descriptor;
      if (descriptor->allocated && descriptor->generation == ad.generation() &&
          descriptor->type == SystemType::kInstructionSegment &&
          descriptor->data_epoch == entry.data_epoch && entry.program_version == version_) {
        ++cache->stats().program_hits;
        return static_cast<const Program*>(entry.program);
      }
    }
    ++cache->stats().program_misses;
    IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * descriptor, machine_->table().Resolve(ad));
    if (descriptor->type != SystemType::kInstructionSegment) {
      return Fault::kTypeMismatch;
    }
    const Program* program = Find(ad.index());
    if (program == nullptr) {
      return Fault::kNotFound;
    }
    entry.index = ad.index();
    entry.generation = ad.generation();
    entry.descriptor = descriptor;
    entry.program = program;
    entry.program_version = version_;
    entry.data_epoch = descriptor->data_epoch;
    return program;
  }

  // Replaces the program behind a live instruction segment in place (hot-patching a loaded
  // program without changing its architectural identity). Staleness contract: bumps BOTH
  // invalidation keys FetchCached consults — version() and the segment descriptor's
  // data_epoch (the per-object content witness) — plus rewrites the instruction-count
  // metadata. Missing either bump would let a cached translation keep serving the old code.
  Status Replace(const AccessDescriptor& ad, ProgramRef program) {
    IMAX_ASSIGN_OR_RETURN(ObjectDescriptor * descriptor, machine_->table().Resolve(ad));
    if (descriptor->type != SystemType::kInstructionSegment) {
      return Fault::kTypeMismatch;
    }
    auto it = programs_.find(ad.index());
    if (it == programs_.end()) {
      return Fault::kNotFound;
    }
    IMAX_RETURN_IF_FAULT(
        machine_->memory().Write(descriptor->data_base, 4, program->size()));
    it->second = std::move(program);
    ++version_;
    ++descriptor->data_epoch;
    // Static analysis summarized the OLD code: let the owner retract it.
    Retract(ad.index());
    return Status::Ok();
  }

  // The owner's retract hook (the kernel's: it forgets the segment's analysis record and
  // clears the translation caches). Replace and Reclaim fire it; Register and Forget do not.
  void SetRetractHook(std::function<void(ObjectIndex)> hook) {
    retract_hook_ = std::move(hook);
  }

  // Fires the retract hook for `index`: everything derived from the segment's code goes,
  // the code itself stays.
  void Retract(ObjectIndex index) {
    if (retract_hook_) retract_hook_(index);
  }

  // Drops the program content of an instruction segment.
  void Forget(ObjectIndex index) {
    if (programs_.erase(index) != 0) ++version_;
  }

  // The GC's reclaim path: drops the content, then retracts what was derived from it.
  void Reclaim(ObjectIndex index) {
    Forget(index);
    Retract(index);
  }

  // Raw pointer lookup: no Resolve, no shared_ptr traffic. The pointer stays valid until
  // Forget drops the segment — which bumps version(), killing every cache entry that
  // captured it.
  const Program* Find(ObjectIndex index) const {
    auto it = programs_.find(index);
    return it == programs_.end() ? nullptr : it->second.get();
  }

  // Bumped on every Register / Replace / successful Forget. Translation-cache program
  // payloads are keyed on it: any store mutation invalidates them wholesale.
  uint64_t version() const { return version_; }

  // Visits every registered program as (segment object index, program) — offline tools like
  // imax_lint use this to sweep all code loaded into a running system.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [index, program] : programs_) {
      fn(index, *program);
    }
  }

 private:
  Machine* machine_;
  MemoryManager* memory_;
  std::map<ObjectIndex, ProgramRef> programs_;
  uint64_t version_ = 0;
  std::function<void(ObjectIndex)> retract_hook_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_ISA_PROGRAM_STORE_H_
