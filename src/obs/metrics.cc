#include "src/obs/metrics.h"

#include <cstdio>

#include "src/exec/kernel.h"
#include "src/filing/object_store.h"
#include "src/gc/collector.h"
#include "src/os/process_manager.h"
#include "src/os/schedulers.h"
#include "src/os/system.h"

namespace imax432 {

CounterMap CountersFor(const KernelStats& stats) {
  return {{"instructions_executed", stats.instructions_executed},
          {"dispatches", stats.dispatches},
          {"time_slice_ends", stats.time_slice_ends},
          {"blocks", stats.blocks},
          {"faults_delivered", stats.faults_delivered},
          {"panics", stats.panics},
          {"processes_created", stats.processes_created},
          {"processes_terminated", stats.processes_terminated},
          {"domain_calls", stats.domain_calls},
          {"local_calls", stats.local_calls},
          {"swap_faults", stats.swap_faults},
          {"programs_verified", stats.programs_verified},
          {"programs_rejected", stats.programs_rejected},
          {"effect_summaries", stats.effect_summaries},
          {"processors_retired", stats.processors_retired},
          {"processors_stalled", stats.processors_stalled},
          {"retirement_requeues", stats.retirement_requeues},
          {"xlat_invalidations", stats.xlat_invalidations}};
}

CounterMap CountersFor(const XlatCacheStats& stats) {
  return {{"xlat_hits", stats.hits},
          {"xlat_misses", stats.misses},
          {"xlat_program_hits", stats.program_hits},
          {"xlat_program_misses", stats.program_misses}};
}

CounterMap CountersFor(const PortStats& stats) {
  return {{"ports_created", stats.ports_created},
          {"messages_enqueued", stats.messages_enqueued},
          {"messages_dequeued", stats.messages_dequeued},
          {"direct_handoffs", stats.direct_handoffs},
          {"peak_queue_depth", stats.peak_queue_depth}};
}

CounterMap CountersFor(const GcStats& stats) {
  return {{"cycles_completed", stats.cycles_completed},
          {"objects_scanned", stats.objects_scanned},
          {"slots_scanned", stats.slots_scanned},
          {"objects_reclaimed", stats.objects_reclaimed},
          {"bytes_reclaimed", stats.bytes_reclaimed},
          {"objects_finalized", stats.objects_finalized},
          {"sros_kept_live", stats.sros_kept_live},
          {"filter_send_failures", stats.filter_send_failures},
          {"exempt_objects_skipped", stats.exempt_objects_skipped},
          {"descriptors_visited", stats.descriptors_visited}};
}

CounterMap CountersFor(const MemoryStats& stats) {
  return {{"objects_created", stats.objects_created},
          {"objects_destroyed", stats.objects_destroyed},
          {"sros_created", stats.sros_created},
          {"sros_destroyed", stats.sros_destroyed},
          {"bulk_reclaimed_objects", stats.bulk_reclaimed_objects},
          {"swap_ins", stats.swap_ins},
          {"swap_outs", stats.swap_outs},
          {"device_retries", stats.device_retries},
          {"device_errors", stats.device_errors},
          {"resident_bytes", stats.resident_bytes},
          {"backing_peak_used", stats.backing_peak_used}};
}

CounterMap CountersFor(const SchedulerStats& stats) {
  return {{"admitted", stats.admitted}, {"adjusted", stats.adjusted}};
}

CounterMap CountersFor(const ProcessManagerStats& stats) {
  return {{"created", stats.created},
          {"tree_starts", stats.tree_starts},
          {"tree_stops", stats.tree_stops},
          {"transitions", stats.transitions},
          {"scheduler_notifications", stats.scheduler_notifications}};
}

CounterMap CountersFor(const FilingStats& stats) {
  return {{"filed", stats.filed},
          {"retrieved", stats.retrieved},
          {"removed", stats.removed},
          {"type_checks_failed", stats.type_checks_failed},
          {"journaled_mutations", stats.journaled_mutations},
          {"journal_rejections", stats.journal_rejections},
          {"recoveries", stats.recoveries},
          {"recovered_images", stats.recovered_images},
          {"recovered_composites", stats.recovered_composites},
          {"retrieve_cleanups", stats.retrieve_cleanups}};
}

CounterMap CountersFor(const PatrolStats& stats) {
  return {{"sweeps_completed", stats.sweeps_completed},
          {"descriptors_scanned", stats.descriptors_scanned},
          {"objects_quarantined", stats.objects_quarantined},
          {"checksum_failures", stats.checksum_failures},
          {"invariant_failures", stats.invariant_failures},
          {"data_crc_failures", stats.data_crc_failures},
          {"shadow_refreshes", stats.shadow_refreshes}};
}

MetricsRegistry::MetricsRegistry(System* system) {
  Machine* machine = &system->machine();
  clock_ = [machine] { return machine->now(); };
  Add("kernel", [system] {
    // The translation-cache and event counters are host work, but deterministic: the
    // simulation drives every probe and every schedule, so they gate like virtual-time
    // counters.
    CounterMap counters = CountersFor(system->kernel().stats());
    for (auto& counter : CountersFor(system->kernel().xlat_stats())) {
      counters.push_back(std::move(counter));
    }
    const EventQueue& events = system->machine().events();
    counters.emplace_back("hot_events_scheduled", events.hot_scheduled());
    counters.emplace_back("callback_events_scheduled", events.callback_scheduled());
    return counters;
  });
  Add("ports", [system] { return CountersFor(system->kernel().ports().stats()); });
  Add("gc", [system] { return CountersFor(system->gc().stats()); });
  Add("memory", [system] { return CountersFor(system->memory().stats()); });
  Add("patrol", [system] { return CountersFor(system->patrol().stats()); });
  Add("process_manager", [system] { return CountersFor(system->process_manager().stats()); });
  Add("filing", [system] {
    CounterMap counters = CountersFor(system->filing().stats());
    if (system->journal() != nullptr) {
      for (auto& [name, value] : CountersFor(system->journal()->stats())) {
        counters.emplace_back("journal_" + name, value);
      }
    }
    return counters;
  });
  Add("machine", [machine] {
    CounterMap counters;
    counters.emplace_back("bus_busy_cycles", machine->bus().busy_cycles());
    counters.emplace_back("bus_wait_cycles", machine->bus().wait_cycles());
    counters.emplace_back("bus_transactions", machine->bus().transactions());
    counters.emplace_back("bus_dropped_transfers", machine->bus().dropped_transfers());
    counters.emplace_back("bus_duplicated_transfers", machine->bus().duplicated_transfers());
    counters.emplace_back(
        "bus_utilization_permille",
        static_cast<uint64_t>(machine->bus().Utilization(machine->now()) * 1000.0));
    counters.emplace_back("trace_events_recorded", machine->trace().total_emitted());
    counters.emplace_back("trace_events_dropped", machine->trace().dropped());
    return counters;
  });
  AddHistogram("port_wait", &machine->latency().port_wait);
  AddHistogram("dispatch_latency", &machine->latency().dispatch_latency);
  AddHistogram("domain_call", &machine->latency().domain_call);
  AddHistogram("allocation", &machine->latency().allocation);
  Add("profiler", [machine] {
    CounterMap counters;
    const CycleProfiler& profiler = machine->profiler();
    CycleBucketArray totals = profiler.Totals();
    for (size_t b = 0; b < kCycleBucketCount; ++b) {
      counters.emplace_back(
          std::string("cycles_") + CycleBucketName(static_cast<CycleBucket>(b)), totals[b]);
    }
    counters.emplace_back("hot_sites", profiler.hot_sites().size());
    counters.emplace_back("samples_taken", profiler.samples_taken());
    counters.emplace_back("samples_dropped", profiler.samples_dropped());
    const SpanTracer& spans = machine->spans();
    counters.emplace_back("spans_created", spans.spans_created());
    counters.emplace_back("roots_created", spans.roots_created());
    counters.emplace_back("spans_dropped", spans.dropped());
    return counters;
  });
  AddHistogram("request_latency", &machine->spans().latency());
}

void MetricsRegistry::Add(std::string group, Provider provider) {
  providers_.emplace_back(std::move(group), std::move(provider));
}

void MetricsRegistry::AddHistogram(std::string name, const Histogram* histogram) {
  histograms_.emplace_back(std::move(name), histogram);
}

MetricsSnapshot MetricsRegistry::Collect() const {
  MetricsSnapshot snapshot;
  snapshot.now = clock_ ? clock_() : 0;
  for (const auto& [group, provider] : providers_) {
    snapshot.groups.emplace_back(group, provider());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.min = histogram->min();
    h.max = histogram->max();
    h.p50 = histogram->Percentile(50.0);
    h.p95 = histogram->Percentile(95.0);
    h.p99 = histogram->Percentile(99.0);
    h.p999 = histogram->Percentile(99.9);
    size_t last = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (histogram->bucket(i) != 0) {
        last = i + 1;
      }
    }
    for (size_t i = 0; i < last; ++i) {
      h.buckets.push_back(histogram->bucket(i));
    }
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

namespace {

void AppendJsonNumber(std::string* out, uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%llu", static_cast<unsigned long long>(value));
  *out += buffer;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"now_cycles\":";
  AppendJsonNumber(&out, now);
  out += ",\"counters\":{";
  bool first_group = true;
  for (const auto& [group, counters] : groups) {
    if (!first_group) out += ',';
    first_group = false;
    out += '"';
    out += group;
    out += "\":{";
    bool first = true;
    for (const auto& [name, value] : counters) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += name;
      out += "\":";
      AppendJsonNumber(&out, value);
    }
    out += '}';
  }
  out += "},\"histograms\":{";
  bool first_histogram = true;
  for (const HistogramSnapshot& h : histograms) {
    if (!first_histogram) out += ',';
    first_histogram = false;
    out += '"';
    out += h.name;
    out += "\":{\"count\":";
    AppendJsonNumber(&out, h.count);
    out += ",\"sum\":";
    AppendJsonNumber(&out, h.sum);
    out += ",\"min\":";
    AppendJsonNumber(&out, h.min);
    out += ",\"max\":";
    AppendJsonNumber(&out, h.max);
    out += ",\"p50\":";
    AppendJsonNumber(&out, h.p50);
    out += ",\"p95\":";
    AppendJsonNumber(&out, h.p95);
    out += ",\"p99\":";
    AppendJsonNumber(&out, h.p99);
    out += ",\"p999\":";
    AppendJsonNumber(&out, h.p999);
    out += ",\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) out += ',';
      AppendJsonNumber(&out, h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace imax432
