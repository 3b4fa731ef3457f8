// Machine: the aggregate hardware state of one emulated 432 system.
//
// One Machine = one shared physical memory, one global object descriptor table, one
// addressing/protection unit, one interconnect, and one virtual clock. Processors, processes
// and the iMAX software layers all operate on a Machine. Constructing a Machine models
// power-on; the first software to run (the memory subsystem boot) hand-crafts the root
// storage resource object, just as iMAX's initialization built the initial memory image.

#ifndef IMAX432_SRC_SIM_MACHINE_H_
#define IMAX432_SRC_SIM_MACHINE_H_

#include <cstdint>

#include "src/arch/addressing_unit.h"
#include "src/arch/cycle_model.h"
#include "src/arch/object_table.h"
#include "src/arch/physical_memory.h"
#include "src/obs/observer_bus.h"
#include "src/sim/bus.h"
#include "src/sim/event_queue.h"

namespace imax432 {

struct MachineConfig {
  uint32_t memory_bytes = 4 * 1024 * 1024;   // total physical memory
  uint32_t object_table_capacity = 65536;    // max simultaneously live objects
  int bus_channels = 1;                      // memory interconnect channels
  Cycles time_slice = cycles::kDefaultTimeSlice;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config)
      : config_(config),
        memory_(config.memory_bytes),
        table_(config.object_table_capacity),
        addressing_(&table_, &memory_),
        bus_(config.bus_channels),
        observers_(&table_, &events_) {}

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  PhysicalMemory& memory() { return memory_; }
  ObjectTable& table() { return table_; }
  AddressingUnit& addressing() { return addressing_; }
  Bus& bus() { return bus_; }
  EventQueue& events() { return events_; }

  // Observability lives with the clock it timestamps against. Every subsystem holds a
  // Machine*, so every transition reaches the one event stream without extra plumbing.
  ObserverBus& observers() { return observers_; }
  TraceRecorder& trace() { return observers_.trace(); }
  const TraceRecorder& trace() const { return observers_.trace(); }
  LatencyHistograms& latency() { return observers_.latency(); }
  const LatencyHistograms& latency() const { return observers_.latency(); }
  CycleProfiler& profiler() { return observers_.profiler(); }
  const CycleProfiler& profiler() const { return observers_.profiler(); }
  SpanTracer& spans() { return observers_.spans(); }
  const SpanTracer& spans() const { return observers_.spans(); }

  Cycles now() const { return events_.now(); }

 private:
  MachineConfig config_;
  PhysicalMemory memory_;
  ObjectTable table_;
  AddressingUnit addressing_;
  Bus bus_;
  EventQueue events_;
  ObserverBus observers_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_SIM_MACHINE_H_
