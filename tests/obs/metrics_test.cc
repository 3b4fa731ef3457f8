#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include "src/os/schedulers.h"
#include "src/os/system.h"

namespace imax432 {
namespace {

SystemConfig TraceConfig() {
  SystemConfig config;
  config.processors = 2;
  config.machine.memory_bytes = 2 * 1024 * 1024;
  config.trace = true;
  return config;
}

void RunSmallWorkload(System& system) {
  Assembler a("worker");
  a.Compute(2000).Halt();
  ASSERT_TRUE(system.Spawn(a.Build()).ok());
  system.Run();
}

TEST(MetricsRegistryTest, SystemRegistryCollectsEveryGroup) {
  System system(TraceConfig());
  RunSmallWorkload(system);

  MetricsRegistry registry(&system);
  MetricsSnapshot snapshot = registry.Collect();
  EXPECT_EQ(snapshot.now, system.now());

  std::vector<std::string> groups;
  for (const auto& [group, counters] : snapshot.groups) {
    groups.push_back(group);
    EXPECT_FALSE(counters.empty()) << group;
  }
  EXPECT_EQ(groups, (std::vector<std::string>{"kernel", "ports", "gc", "memory", "patrol",
                                              "process_manager", "filing", "machine",
                                              "profiler"}));
}

TEST(MetricsRegistryTest, CountersMatchSourceStats) {
  System system(TraceConfig());
  RunSmallWorkload(system);

  MetricsRegistry registry(&system);
  MetricsSnapshot snapshot = registry.Collect();

  auto find = [&](const std::string& group, const std::string& name) -> uint64_t {
    for (const auto& [g, counters] : snapshot.groups) {
      if (g != group) continue;
      for (const auto& [n, value] : counters) {
        if (n == name) return value;
      }
    }
    ADD_FAILURE() << group << "." << name << " not found";
    return 0;
  };

  EXPECT_EQ(find("kernel", "dispatches"), system.kernel().stats().dispatches);
  EXPECT_EQ(find("kernel", "instructions_executed"),
            system.kernel().stats().instructions_executed);
  // Every executed instruction scheduled its processor's next step or fetch as a hot event.
  EXPECT_EQ(find("kernel", "hot_events_scheduled"), system.machine().events().hot_scheduled());
  EXPECT_GE(find("kernel", "hot_events_scheduled"),
            system.kernel().stats().instructions_executed);
  EXPECT_EQ(find("kernel", "callback_events_scheduled"),
            system.machine().events().callback_scheduled());
  EXPECT_EQ(find("memory", "objects_created"), system.memory().stats().objects_created);
  EXPECT_EQ(find("machine", "trace_events_recorded"),
            system.machine().trace().total_emitted());
  EXPECT_GT(find("machine", "bus_transactions"), 0u);
}

TEST(MetricsRegistryTest, DispatchHistogramCountsEveryDispatch) {
  System system(TraceConfig());
  RunSmallWorkload(system);

  MetricsRegistry registry(&system);
  MetricsSnapshot snapshot = registry.Collect();

  const HistogramSnapshot* dispatch = nullptr;
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "dispatch_latency") dispatch = &h;
  }
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->count, system.kernel().stats().dispatches);
  EXPECT_GT(dispatch->count, 0u);
  EXPECT_GE(dispatch->p95, dispatch->p50);
  EXPECT_GE(dispatch->max, dispatch->min);
  // Trailing-zero trimming never drops a populated bucket.
  uint64_t in_buckets = 0;
  for (uint64_t b : dispatch->buckets) in_buckets += b;
  EXPECT_EQ(in_buckets, dispatch->count);
}

TEST(MetricsRegistryTest, CustomProvidersAndClock) {
  MetricsRegistry registry;
  registry.SetClock([] { return Cycles{1234}; });
  registry.Add("custom", [] { return CounterMap{{"answer", 42}}; });
  SchedulerStats scheduler;
  scheduler.admitted = 7;
  registry.Add("scheduler", [&scheduler] { return CountersFor(scheduler); });
  Histogram histogram;
  histogram.Record(100);
  registry.AddHistogram("waits", &histogram);

  MetricsSnapshot snapshot = registry.Collect();
  EXPECT_EQ(snapshot.now, 1234u);
  ASSERT_EQ(snapshot.groups.size(), 2u);
  EXPECT_EQ(snapshot.groups[0].first, "custom");
  EXPECT_EQ(snapshot.groups[0].second[0].second, 42u);
  EXPECT_EQ(snapshot.groups[1].second[0].second, 7u);  // admitted
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
}

TEST(MetricsRegistryTest, ToJsonIsWellFormed) {
  System system(TraceConfig());
  RunSmallWorkload(system);

  MetricsRegistry registry(&system);
  std::string json = registry.Collect().ToJson();

  // Structural spot checks (no JSON parser in tree): balanced braces/brackets, expected
  // top-level keys, at least one counter and histogram rendered.
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"now_cycles\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\":{"), std::string::npos);
  EXPECT_NE(json.find("\"dispatches\":"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"dispatch_latency\":{"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace imax432
