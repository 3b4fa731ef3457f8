#include "src/proc/layouts.h"

#include <cstdio>
#include <cstdlib>

namespace imax432 {

const char* ProcessStateName(ProcessState state) {
  switch (state) {
    case ProcessState::kEmbryo:
      return "embryo";
    case ProcessState::kReady:
      return "ready";
    case ProcessState::kRunning:
      return "running";
    case ProcessState::kBlocked:
      return "blocked";
    case ProcessState::kStopped:
      return "stopped";
    case ProcessState::kFaulted:
      return "faulted";
    case ProcessState::kTerminated:
      return "terminated";
  }
  return "?";
}

void ObjectView::FieldFault(const char* op, Fault fault, uint32_t offset,
                            uint32_t width) const {
  std::fprintf(stderr, "ObjectView::%s fault %s: object %u offset %u width %u\n", op,
               FaultName(fault), ad_.index(), offset, width);
  std::abort();
}

}  // namespace imax432
