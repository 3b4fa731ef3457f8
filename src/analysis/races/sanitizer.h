// Dynamic data-race sanitizer: vector clocks over concrete executions.
//
// The static pass (races.h) proves ordering from summaries; this is its ground-truth
// cross-check (SystemConfig::race_sanitize). The observer bus (src/obs/observer_bus.h)
// feeds it every data / access-part read and write, port transfer, process creation and
// retirement, and object destruction, and the sanitizer maintains:
//
//   - one vector clock per live process (its view of every other process's progress),
//   - one clock per in-flight message, stamped at enqueue with the sender's clock and
//     joined into the receiver at dequeue (direct handoffs join sender into receiver
//     without touching a queue),
//   - FastTrack-style per-(object, part) epochs: the last write and the last read per
//     process since that write.
//
// An access races when its process's clock has not caught up with the epoch of a prior
// conflicting access by another process — i.e. no chain of port transfers orders the two.
//
// Process and object indices are reused after retirement/destruction; the sanitizer keys
// internal slots by incarnation (a retiring process folds its final clock into the next
// holder of its index, which is genuinely ordered after it; a destroyed object's epochs
// are dropped, whichever path destroyed it).

#ifndef IMAX432_SRC_ANALYSIS_RACES_SANITIZER_H_
#define IMAX432_SRC_ANALYSIS_RACES_SANITIZER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/effects.h"
#include "src/arch/types.h"

namespace imax432 {
namespace analysis {

// One detected race: the earlier access (by epoch) and the current one that tripped it.
struct RaceRecord {
  ObjectIndex object = kInvalidObjectIndex;
  ObjectPart part = ObjectPart::kData;
  ObjectIndex first_process = kInvalidObjectIndex;
  uint32_t first_pc = 0;
  AccessKind first_kind = AccessKind::kWrite;
  ObjectIndex second_process = kInvalidObjectIndex;
  uint32_t second_pc = 0;
  AccessKind second_kind = AccessKind::kWrite;
  Cycles when = 0;  // virtual time of the second access
};

struct RaceSanitizerStats {
  uint64_t accesses_checked = 0;
  uint64_t messages_stamped = 0;
  uint64_t joins = 0;  // receive joins + direct handoffs
  uint64_t races_detected = 0;  // deduplicated by site pair
};

class RaceSanitizer {
 public:
  // --- Port-transfer joins. `seq` is the PortSubsystem transfer sequence number, which
  // identifies one queued message exactly even when the same object is enqueued twice. ---
  void OnSend(ObjectIndex sender, uint64_t seq);
  void OnReceive(ObjectIndex receiver, uint64_t seq);
  // Fast-path handoff: the message never touches a queue.
  void OnHandoff(ObjectIndex sender, ObjectIndex receiver);

  // --- Access checks, called at interpretation time after the AU accepted the access.
  // Returns the freshly recorded race, or nullptr (ordered, same-process, or a duplicate
  // of an already-reported site pair). The pointer is valid until the next OnAccess. ---
  const RaceRecord* OnAccess(ObjectIndex process, ObjectIndex object, ObjectPart part,
                             AccessKind kind, uint32_t pc, Cycles now);

  // --- Lifecycle. ---
  // Thread-create/join analog: a process created after others terminated is ordered after
  // everything they did, whatever index it lands on.
  void OnProcessCreated(ObjectIndex process);
  void OnProcessRetired(ObjectIndex process);
  void OnObjectDestroyed(ObjectIndex object);

  const std::vector<RaceRecord>& races() const { return races_; }
  const RaceSanitizerStats& stats() const { return stats_; }

 private:
  // Grow-only clock, indexed by process slot. Missing entries read as 0.
  struct VectorClock {
    std::vector<uint64_t> time;

    uint64_t Get(uint32_t slot) const { return slot < time.size() ? time[slot] : 0; }
    void Set(uint32_t slot, uint64_t value) {
      if (slot >= time.size()) time.resize(slot + 1, 0);
      time[slot] = value;
    }
    void Bump(uint32_t slot) { Set(slot, Get(slot) + 1); }
    void Join(const VectorClock& other) {
      if (other.time.size() > time.size()) time.resize(other.time.size(), 0);
      for (size_t i = 0; i < other.time.size(); ++i) {
        if (other.time[i] > time[i]) time[i] = other.time[i];
      }
    }
  };

  struct Epoch {
    uint32_t slot = 0;
    uint64_t time = 0;
    uint32_t pc = 0;
    ObjectIndex process = kInvalidObjectIndex;
    AccessKind kind = AccessKind::kWrite;
  };

  struct ObjectState {
    bool has_write = false;
    Epoch write;
    std::map<uint32_t, Epoch> reads;  // slot -> last read since the last write
  };

  uint32_t SlotFor(ObjectIndex process);
  const RaceRecord* Report(const Epoch& prior, ObjectIndex process, ObjectIndex object,
                           ObjectPart part, AccessKind kind, uint32_t pc, Cycles now);

  std::map<ObjectIndex, uint32_t> slots_;        // live process index -> slot
  std::vector<VectorClock> clocks_;              // per slot
  std::map<ObjectIndex, VectorClock> retired_;   // index -> final clock, until reused
  std::map<uint64_t, VectorClock> messages_;     // in-flight, by transfer seq
  std::map<uint64_t, ObjectState> objects_;      // (object << 1) | part
  std::vector<RaceRecord> races_;
  std::set<std::string> seen_pairs_;             // dedupe key per reported site pair
  RaceSanitizerStats stats_;
};

}  // namespace analysis
}  // namespace imax432

#endif  // IMAX432_SRC_ANALYSIS_RACES_SANITIZER_H_
