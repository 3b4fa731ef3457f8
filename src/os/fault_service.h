// FaultService: a fault-handling package layered on the hardware fault-delivery mechanism.
//
// The hardware "send[s] them back to software when various fault or scheduling conditions
// arise": a faulted process object arrives, as a message, at its fault port. *Something*
// must serve that port; this package is the standard something — a daemon process that
// receives faulted processes and applies a policy per fault code:
//   - kRetry    : resume the process at the faulting instruction (transient conditions:
//                 timeouts, storage exhaustion after a GC cycle has run);
//   - kTerminate: give up on the process;
//   - kDeliver  : forward the process object to an escalation port for a smarter handler.
// Per-process retry budgets prevent fault loops. Like every iMAX service it is configured
// by selection: processes that name this service's port get the policy; others keep the
// default terminate-on-fault behaviour.

#ifndef IMAX432_SRC_OS_FAULT_SERVICE_H_
#define IMAX432_SRC_OS_FAULT_SERVICE_H_

#include <cstdint>
#include <map>
#include <utility>

#include "src/exec/kernel.h"

namespace imax432 {

enum class FaultAction : uint8_t {
  kTerminate = 0,
  kRetry,
  kDeliver,  // forward to the escalation port
};

struct FaultPolicy {
  // Action per fault code; anything unlisted gets `default_action`.
  std::map<Fault, FaultAction> actions;
  FaultAction default_action = FaultAction::kTerminate;
  // Retries allowed per (process, fault code) before termination regardless of policy.
  uint32_t retry_budget = 3;
  // Per-fault-code budget overrides: transient conditions (kDeviceError, kTimeout) deserve
  // more patience than logic faults. kObjectQuarantined is special-cased to zero by the
  // service itself — retrying an access to a corrupt object can never succeed.
  std::map<Fault, uint32_t> retry_budgets;
};

struct FaultServiceStats {
  uint64_t received = 0;
  uint64_t retried = 0;
  uint64_t terminated = 0;
  uint64_t escalated = 0;
  uint64_t budget_exhausted = 0;
};

class FaultService {
 public:
  FaultService(Kernel* kernel, FaultPolicy policy)
      : kernel_(kernel), policy_(std::move(policy)) {}

  // The policy matched to the injectable fault classes: generous retries for transient
  // device errors and timeouts, a couple for storage exhaustion (a GC cycle may free
  // space), and immediate termination for quarantined-object faults (retry cannot help;
  // the object stays corrupt).
  static FaultPolicy MakeRecoveryPolicy();

  // Spawns the handler daemon. Returns the fault port to configure processes with
  // (ProcessOptions::fault_port). `escalation_port` receives kDeliver-class processes
  // (null = treat kDeliver as kTerminate).
  Result<AccessDescriptor> Spawn(const AccessDescriptor& escalation_port = {});

  const FaultServiceStats& stats() const { return stats_; }

 private:
  void Handle(const AccessDescriptor& process);
  // Effective retry budget for one fault code under the current policy.
  uint32_t BudgetFor(Fault fault) const;

  Kernel* kernel_;
  FaultPolicy policy_;
  AccessDescriptor escalation_port_;
  // Retry counts per (process, fault code): a process with recurring device errors must
  // not burn the budget of an unrelated later timeout.
  std::map<std::pair<ObjectIndex, Fault>, uint32_t> retries_;
  FaultServiceStats stats_;
};

}  // namespace imax432

#endif  // IMAX432_SRC_OS_FAULT_SERVICE_H_
