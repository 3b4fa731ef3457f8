// EventQueue: the discrete-event engine that gives the emulator its virtual time base.
//
// Everything that "happens" in the machine — instruction completions, dispatches, device
// completions, GC daemon quanta — is an event at a cycle timestamp. Events at equal times run
// in scheduling order (a monotone sequence number breaks ties), so simulations are bit-for-bit
// reproducible regardless of host scheduling. "Parallel" processors are interleaved in virtual
// time at instruction granularity, which is exactly the tightly-coupled shared-memory model
// the 432 exposes to software.
//
// Two kinds of event share the heap and the sequence counter. A *hot* event is a bare
// (time, seq, tag) entry handed to the one registered hot handler — the kernel's per-step
// ProcessorStep/ProcessorFetch events, which would otherwise build a std::function every
// emulated instruction. A *callback* event carries a std::function, parked in a slab whose
// slots are reused; the heap entry holds the slot index. Order depends only on (time, seq),
// so which kind an event is never changes when it runs.

#ifndef IMAX432_SRC_SIM_EVENT_QUEUE_H_
#define IMAX432_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/arch/types.h"
#include "src/base/check.h"

namespace imax432 {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  // Receives every hot event's tag; `owner` is the pointer registered with the handler.
  using HotHandler = void (*)(void* owner, uint32_t tag);

  // Registers the single hot-event handler (nullptr clears it). A hot event that comes due
  // while no handler is registered is dropped: its owner is gone.
  void SetHotHandler(HotHandler handler, void* owner) {
    IMAX_CHECK(handler == nullptr || hot_handler_ == nullptr);
    hot_handler_ = handler;
    hot_owner_ = owner;
  }

  // Schedules `fn` to run at absolute virtual time `when` (>= now()).
  void ScheduleAt(Cycles when, Callback fn) {
    IMAX_CHECK(when >= now_);
    uint32_t slot = static_cast<uint32_t>(slab_.size());
    if (free_slots_.empty()) {
      slab_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(fn);
    }
    heap_.push(Event{when, next_seq_++, slot, /*hot=*/false});
    ++callback_scheduled_;
  }

  // Schedules `fn` to run `delay` cycles from now.
  void ScheduleAfter(Cycles delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Schedules a hot event carrying `tag` at absolute virtual time `when` (>= now()).
  void ScheduleHotAt(Cycles when, uint32_t tag) {
    IMAX_CHECK(when >= now_);
    heap_.push(Event{when, next_seq_++, tag, /*hot=*/true});
    ++hot_scheduled_;
  }

  // Runs events until the queue drains. Returns the number of events processed.
  uint64_t RunUntilIdle() { return RunUntil(~Cycles{0}); }

  // Runs events with time <= deadline; the clock never passes an event it did not run.
  uint64_t RunUntil(Cycles deadline) {
    uint64_t processed = 0;
    while (!heap_.empty() && heap_.top().time <= deadline) {
      RunTop();
      ++processed;
    }
    return processed;
  }

  // Runs at most `limit` events of either kind (safety valve for tests of
  // potentially-divergent programs).
  uint64_t RunBounded(uint64_t limit) {
    uint64_t processed = 0;
    while (processed < limit && !heap_.empty()) {
      RunTop();
      ++processed;
    }
    return processed;
  }

  Cycles now() const { return now_; }
  bool idle() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

  // Events scheduled so far, by kind. Deterministic host-work counters: the simulation
  // alone decides every schedule.
  uint64_t hot_scheduled() const { return hot_scheduled_; }
  uint64_t callback_scheduled() const { return callback_scheduled_; }

 private:
  struct Event {
    Cycles time;
    uint64_t seq;
    uint32_t payload;  // hot: the tag; callback: the slab slot
    bool hot;

    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  // Pops the earliest event and runs it. A callback is moved out of its slab slot, and the
  // slot freed, before it runs, so it may schedule new events freely.
  void RunTop() {
    const Event event = heap_.top();
    heap_.pop();
    IMAX_DCHECK(event.time >= now_);
    now_ = event.time;
    if (event.hot) {
      if (hot_handler_ != nullptr) {
        hot_handler_(hot_owner_, event.payload);
      }
      return;
    }
    Callback fn = std::move(slab_[event.payload]);
    slab_[event.payload] = nullptr;
    free_slots_.push_back(event.payload);
    fn();
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::vector<Callback> slab_;
  std::vector<uint32_t> free_slots_;
  HotHandler hot_handler_ = nullptr;
  void* hot_owner_ = nullptr;
  Cycles now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t hot_scheduled_ = 0;
  uint64_t callback_scheduled_ = 0;
};

}  // namespace imax432

#endif  // IMAX432_SRC_SIM_EVENT_QUEUE_H_
