#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace imax432 {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(30, [&] { order.push_back(3); });
  queue.ScheduleAt(10, [&] { order.push_back(1); });
  queue.ScheduleAt(20, [&] { order.push_back(2); });
  queue.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueueTest, EqualTimesRunInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  queue.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, CallbacksMayScheduleMore) {
  EventQueue queue;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) {
      queue.ScheduleAfter(10, tick);
    }
  };
  queue.ScheduleAt(0, tick);
  queue.RunUntilIdle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(queue.now(), 40u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue queue;
  int ran = 0;
  queue.ScheduleAt(10, [&] { ++ran; });
  queue.ScheduleAt(20, [&] { ++ran; });
  queue.ScheduleAt(30, [&] { ++ran; });
  EXPECT_EQ(queue.RunUntil(20), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.RunUntilIdle(), 1u);
  EXPECT_EQ(ran, 3);
}

TEST(EventQueueTest, RunBoundedLimitsWork) {
  EventQueue queue;
  int count = 0;
  std::function<void()> forever = [&] {
    ++count;
    queue.ScheduleAfter(1, forever);
  };
  queue.ScheduleAt(0, forever);
  EXPECT_EQ(queue.RunBounded(100), 100u);
  EXPECT_EQ(count, 100);
}

TEST(EventQueueTest, ClockNeverGoesBackward) {
  EventQueue queue;
  Cycles last = 0;
  bool monotone = true;
  for (int i = 0; i < 50; ++i) {
    queue.ScheduleAt(static_cast<Cycles>((i * 7) % 23 + 1), [&, i] {
      if (queue.now() < last) {
        monotone = false;
      }
      last = queue.now();
      (void)i;
    });
  }
  queue.RunUntilIdle();
  EXPECT_TRUE(monotone);
}

// Records hot-event tags in the order they run.
struct HotLog {
  static void Record(void* log, uint32_t tag) {
    static_cast<HotLog*>(log)->order.push_back(static_cast<int>(tag));
  }
  std::vector<int> order;
};

TEST(EventQueueTest, HotAndCallbackEventsAtEqualTimesRunInSchedulingOrder) {
  EventQueue queue;
  HotLog log;
  queue.SetHotHandler(&HotLog::Record, &log);
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      queue.ScheduleAt(7, [&log, i] { log.order.push_back(i); });
    } else {
      queue.ScheduleHotAt(7, static_cast<uint32_t>(i));
    }
  }
  queue.ScheduleHotAt(3, 100);
  queue.RunUntilIdle();
  EXPECT_EQ(log.order, (std::vector<int>{100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(queue.hot_scheduled(), 9u);
  EXPECT_EQ(queue.callback_scheduled(), 4u);
}

TEST(EventQueueTest, CallbacksMayScheduleEitherKindWhileRunning) {
  EventQueue queue;
  HotLog log;
  queue.SetHotHandler(&HotLog::Record, &log);
  queue.ScheduleAt(5, [&] {
    log.order.push_back(-1);
    queue.ScheduleHotAt(5, 1);  // same time: after everything already queued at 5
    queue.ScheduleAt(5, [&] { log.order.push_back(-2); });
    queue.ScheduleHotAt(6, 3);
  });
  queue.ScheduleHotAt(5, 0);
  queue.RunUntilIdle();
  EXPECT_EQ(log.order, (std::vector<int>{-1, 0, 1, -2, 3}));
  EXPECT_EQ(queue.now(), 6u);
}

TEST(EventQueueTest, SlabReuseNeverReordersEvents) {
  EventQueue queue;
  std::vector<int> order;
  // Fill slots, free some by running early events, then schedule into the freed slots
  // events that must run after the survivors of the first batch.
  for (int i = 0; i < 8; ++i) {
    queue.ScheduleAt(static_cast<Cycles>(i < 4 ? 1 : 10), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(queue.RunUntil(1), 4u);
  for (int i = 8; i < 12; ++i) {
    queue.ScheduleAt(10, [&order, i] { order.push_back(i); });
  }
  queue.ScheduleAt(2, [&order] { order.push_back(12); });
  queue.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 12, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(EventQueueTest, RunBoundedCountsBothKinds) {
  EventQueue queue;
  HotLog log;
  queue.SetHotHandler(&HotLog::Record, &log);
  int callbacks = 0;
  for (int i = 0; i < 6; ++i) {
    queue.ScheduleHotAt(static_cast<Cycles>(i), static_cast<uint32_t>(i));
    queue.ScheduleAt(static_cast<Cycles>(i), [&] { ++callbacks; });
  }
  EXPECT_EQ(queue.RunBounded(7), 7u);
  EXPECT_EQ(log.order.size(), 4u);
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(queue.RunBounded(100), 5u);
  EXPECT_TRUE(queue.idle());
}

TEST(EventQueueTest, HotEventsWithoutAHandlerAreDropped) {
  EventQueue queue;
  HotLog log;
  queue.SetHotHandler(&HotLog::Record, &log);
  queue.ScheduleHotAt(1, 1);
  queue.SetHotHandler(nullptr, nullptr);
  EXPECT_EQ(queue.RunUntilIdle(), 1u);
  EXPECT_TRUE(log.order.empty());
  EXPECT_EQ(queue.now(), 1u);
}

}  // namespace
}  // namespace imax432
