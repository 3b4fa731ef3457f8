#include "src/os/introspection.h"

#include <cstdio>

namespace imax432 {

ObjectCensus Introspection::TakeCensus() const {
  const ObjectTable& table = kernel_->machine().table();
  ObjectCensus census;
  census.table_capacity = table.capacity();
  table.ForEachAllocated(0, table.capacity(), [&](ObjectIndex i) {
    const ObjectDescriptor& descriptor = table.At(i);
    ++census.live_objects;
    int type = static_cast<int>(descriptor.type);
    ++census.count_by_type[type];
    census.data_bytes_by_type[type] += descriptor.data_length;
    census.total_data_bytes += descriptor.data_length;
    census.total_access_slots += descriptor.access_count();
    if (descriptor.swapped_out) {
      ++census.swapped_out;
    }
    if (descriptor.type_def != kInvalidObjectIndex) {
      ++census.user_typed;
    }
    if (descriptor.level > census.max_level) {
      census.max_level = descriptor.level;
    }
  });
  return census;
}

SystemReport Introspection::Report() const {
  SystemReport report;
  report.now = kernel_->machine().now();
  report.census = TakeCensus();
  report.bus_utilization = kernel_->machine().bus().Utilization(report.now);
  report.kernel = kernel_->stats();
  report.memory = kernel_->memory().stats();
  report.ports = kernel_->ports().stats();
  if (gc_ != nullptr) {
    report.has_gc = true;
    report.gc = gc_->stats();
  }
  if (scheduler_ != nullptr) {
    report.has_scheduler = true;
    report.scheduler = *scheduler_;
  }

  for (int i = 0; i < kernel_->processor_count(); ++i) {
    ObjectView view(&kernel_->machine().addressing(), kernel_->processor_object(i));
    ProcessorReport processor;
    processor.id = static_cast<uint16_t>(view.Field(ProcessorLayout::kOffId, 2));
    processor.state =
        static_cast<ProcessorState>(view.Field(ProcessorLayout::kOffState, 1));
    processor.busy_cycles = view.Field(ProcessorLayout::kOffBusyCycles, 8);
    processor.idle_cycles = view.Field(ProcessorLayout::kOffIdleCycles, 8);
    processor.dispatches = view.Field(ProcessorLayout::kOffDispatches, 8);
    processor.utilization = report.now > 0 ? static_cast<double>(processor.busy_cycles) /
                                                 static_cast<double>(report.now)
                                           : 0.0;
    report.processors.push_back(processor);
  }
  return report;
}

std::string Introspection::Format(const SystemReport& report) {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line), "system report at %.1f virtual ms\n",
                cycles::ToMicroseconds(report.now) / 1000.0);
  out += line;
  std::snprintf(line, sizeof(line), "  objects: %u live / %u slots, %llu data bytes, %u swapped, %u user-typed\n",
                report.census.live_objects, report.census.table_capacity,
                static_cast<unsigned long long>(report.census.total_data_bytes),
                report.census.swapped_out, report.census.user_typed);
  out += line;
  for (int t = 0; t < kNumSystemTypes; ++t) {
    if (report.census.count_by_type[t] == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "    %-20s %6u objects %10llu bytes\n",
                  SystemTypeName(static_cast<SystemType>(t)), report.census.count_by_type[t],
                  static_cast<unsigned long long>(report.census.data_bytes_by_type[t]));
    out += line;
  }
  for (const ProcessorReport& processor : report.processors) {
    std::snprintf(line, sizeof(line),
                  "  gdp %u: %-8s %5.1f%% busy, %llu dispatches\n", processor.id,
                  processor.state == ProcessorState::kIdle      ? "idle"
                  : processor.state == ProcessorState::kRunning ? "running"
                                                                : "halted",
                  processor.utilization * 100.0,
                  static_cast<unsigned long long>(processor.dispatches));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  bus: %.1f%% utilized; kernel: %llu instructions, %llu dispatches, "
                "%llu faults, %llu panics\n",
                report.bus_utilization * 100.0,
                static_cast<unsigned long long>(report.kernel.instructions_executed),
                static_cast<unsigned long long>(report.kernel.dispatches),
                static_cast<unsigned long long>(report.kernel.faults_delivered),
                static_cast<unsigned long long>(report.kernel.panics));
  out += line;
  std::snprintf(line, sizeof(line),
                "  memory: %llu created, %llu destroyed, %llu bulk-reclaimed, %u resident "
                "bytes, %llu swap-ins\n",
                static_cast<unsigned long long>(report.memory.objects_created),
                static_cast<unsigned long long>(report.memory.objects_destroyed),
                static_cast<unsigned long long>(report.memory.bulk_reclaimed_objects),
                report.memory.resident_bytes,
                static_cast<unsigned long long>(report.memory.swap_ins));
  out += line;
  std::snprintf(line, sizeof(line),
                "  ports: %llu created, %llu messages enqueued, %llu direct handoffs\n",
                static_cast<unsigned long long>(report.ports.ports_created),
                static_cast<unsigned long long>(report.ports.messages_enqueued),
                static_cast<unsigned long long>(report.ports.direct_handoffs));
  out += line;
  if (report.has_gc) {
    std::snprintf(line, sizeof(line),
                  "  gc: %llu cycles, %llu objects scanned, %llu reclaimed (%llu bytes), "
                  "%llu finalized\n",
                  static_cast<unsigned long long>(report.gc.cycles_completed),
                  static_cast<unsigned long long>(report.gc.objects_scanned),
                  static_cast<unsigned long long>(report.gc.objects_reclaimed),
                  static_cast<unsigned long long>(report.gc.bytes_reclaimed),
                  static_cast<unsigned long long>(report.gc.objects_finalized));
    out += line;
  }
  if (report.has_scheduler) {
    std::snprintf(line, sizeof(line), "  scheduler: %llu admitted, %llu adjusted\n",
                  static_cast<unsigned long long>(report.scheduler.admitted),
                  static_cast<unsigned long long>(report.scheduler.adjusted));
    out += line;
  }
  return out;
}

}  // namespace imax432
