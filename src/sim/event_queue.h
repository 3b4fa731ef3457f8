// EventQueue: the discrete-event engine that gives the emulator its virtual time base.
//
// Everything that "happens" in the machine — instruction completions, dispatches, device
// completions, GC daemon quanta — is an event at a cycle timestamp. Events at equal times run
// in scheduling order (a monotone sequence number breaks ties), so simulations are bit-for-bit
// reproducible regardless of host scheduling. "Parallel" processors are interleaved in virtual
// time at instruction granularity, which is exactly the tightly-coupled shared-memory model
// the 432 exposes to software.

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

  // Schedules `fn` to run at absolute virtual time `when` (>= now()).
  void ScheduleAt(Cycles when, Callback fn) {
    IMAX_CHECK(when >= now_);
    heap_.push(Event{when, next_seq_++, std::move(fn)});
  }

  // Schedules `fn` to run `delay` cycles from now.
  void ScheduleAfter(Cycles delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Runs events until the queue drains. Returns the number of events processed.
  uint64_t RunUntilIdle() { return RunUntil(~Cycles{0}); }

  // Runs events with time <= deadline; the clock never passes an event it did not run.
  uint64_t RunUntil(Cycles deadline) {
    uint64_t processed = 0;
    while (!heap_.empty() && heap_.top().time <= deadline) {
      Event event = PopTop();
      IMAX_DCHECK(event.time >= now_);
      now_ = event.time;
      event.fn();
      ++processed;
    }
    return processed;
  }

  // Runs at most `limit` events (safety valve for tests of potentially-divergent programs).
  uint64_t RunBounded(uint64_t limit) {
    uint64_t processed = 0;
    while (processed < limit && !heap_.empty()) {
      Event event = PopTop();
      now_ = event.time;
      event.fn();
      ++processed;
    }
    return processed;
  }

  Cycles now() const { return now_; }
  bool idle() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    Cycles time;
    uint64_t seq;
    Callback fn;

    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  // Moves the earliest event out of the heap before popping it, so the callback may
  // schedule new events freely and no std::function is copied per step. The heap orders
  // on `time` and `seq` alone, which the move leaves intact for pop's sift.
  Event PopTop() {
    Event event = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    return event;
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  Cycles now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace imax432

#endif  // IMAX432_SRC_SIM_EVENT_QUEUE_H_
