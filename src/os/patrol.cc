#include "src/os/patrol.h"

#include <vector>

#include "src/arch/cycle_model.h"
#include "src/base/check.h"
#include "src/base/log.h"

namespace imax432 {

uint32_t ObjectPatrol::DataCrc(const ObjectDescriptor& descriptor) const {
  // FNV-1a over the data part. The patrol reads physical memory directly: it is a kernel
  // maintenance agent, and going through the AddressingUnit would bump no state anyway
  // (reads do not advance the epoch) but would fault on rights the patrol does not hold.
  std::vector<uint8_t> data(descriptor.data_length);
  IMAX_CHECK(kernel_->machine()
                 .memory()
                 .ReadBlock(descriptor.data_base, data.data(), descriptor.data_length)
                 .ok());
  uint32_t hash = 2166136261u;
  for (uint8_t byte : data) {
    hash ^= byte;
    hash *= 16777619u;
  }
  return hash;
}

void ObjectPatrol::Quarantine(ObjectIndex index, CheckKind kind) {
  ObjectDescriptor& descriptor = kernel_->machine().table().At(index);
  descriptor.quarantined = true;
  shadow_.erase(index);
  ++stats_.objects_quarantined;
  kernel_->machine().observers().Emit(
      {.kind = TraceEventKind::kObjectQuarantined, .a = index, .b = static_cast<uint32_t>(kind)});
  IMAX_LOG_INFO("patrol quarantined object %u (check %u)", index,
                static_cast<unsigned>(kind));
}

void ObjectPatrol::CheckOne(ObjectIndex index) {
  ObjectTable& table = kernel_->machine().table();
  ObjectDescriptor& descriptor = table.At(index);
  ++work_units_;
  if (!descriptor.allocated) {
    shadow_.erase(index);
    return;
  }
  ++stats_.descriptors_scanned;
  if (descriptor.quarantined) {
    return;  // already frozen; nothing further to learn
  }

  // Check 1: the identity checksum sealed at allocation.
  if (ObjectTable::DescriptorChecksum(descriptor) != descriptor.checksum) {
    ++stats_.checksum_failures;
    if (descriptor.type == SystemType::kGeneric) {
      Quarantine(index, CheckKind::kDescriptorChecksum);
    }
    return;
  }

  // Checks 2 and 3 apply to plain objects only: system objects take privileged stores that
  // legitimately cross levels (a process referencing its deeper-level context), and their
  // data parts are kernel-written without epoch accounting.
  if (descriptor.type != SystemType::kGeneric) {
    return;
  }

  // Check 2: the level storing rule over every resolvable AD in the access part. Stale ADs
  // (dead generation) are legitimate — the generation check neutralizes them — but a live
  // reference that violates the rule can only mean descriptor damage.
  for (const AccessDescriptor& ad : descriptor.access) {
    auto referenced = table.Resolve(ad);
    if (referenced.ok() && !ObjectTable::StorePermitted(descriptor, *referenced.value())) {
      ++stats_.invariant_failures;
      Quarantine(index, CheckKind::kLevelInvariant);
      return;
    }
  }

  // Check 3: shadow CRC of the data part. Skipped while swapped out (contents are on the
  // backing store; the baseline stays valid because the epoch cannot advance either).
  if (descriptor.data_length == 0 || descriptor.swapped_out) {
    return;
  }
  work_units_ += descriptor.data_length / 64;
  uint32_t crc = DataCrc(descriptor);
  auto it = shadow_.find(index);
  if (it == shadow_.end() || it->second.generation != descriptor.generation ||
      it->second.epoch != descriptor.data_epoch) {
    // New object, reused slot, or legitimately written since the last look: re-baseline.
    shadow_[index] = Shadow{descriptor.generation, descriptor.data_epoch, crc};
    ++stats_.shadow_refreshes;
    return;
  }
  if (it->second.crc != crc) {
    // Same generation, same epoch, different contents: a write-free mutation — bit rot.
    ++stats_.data_crc_failures;
    Quarantine(index, CheckKind::kDataCrc);
  }
}

void ObjectPatrol::BeginSweep() {
  sweeping_ = true;
  cursor_ = 0;
}

bool ObjectPatrol::Step(uint32_t units) {
  if (!sweeping_) {
    return false;
  }
  uint32_t capacity = kernel_->machine().table().capacity();
  while (units > 0 && cursor_ < capacity) {
    CheckOne(cursor_);
    ++cursor_;
    --units;
  }
  if (cursor_ >= capacity) {
    sweeping_ = false;
    ++stats_.sweeps_completed;
    kernel_->machine().observers().Emit(
        {.kind = TraceEventKind::kPatrolSweep, .a = capacity,
         .b = static_cast<uint32_t>(stats_.objects_quarantined)});
    return false;
  }
  return true;
}

PatrolStats ObjectPatrol::SweepNow() {
  BeginSweep();
  while (Step(kernel_->machine().table().capacity())) {
  }
  return stats_;
}

Result<AccessDescriptor> ObjectPatrol::SpawnDaemon(uint8_t priority) {
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor request_port,
                        kernel_->ports().CreatePort(kernel_->memory().global_heap(), 16,
                                                    QueueDiscipline::kFifo));
  // Root the doorbell, same as the GC daemon: it is referenced only from native code.
  kernel_->AddRootProvider(
      [request_port](std::vector<AccessDescriptor>* roots) { roots->push_back(request_port); });

  Assembler a("patrol-daemon");
  auto loop = a.NewLabel();
  a.Bind(loop);
  a.Native([request_port](ExecutionContext&) -> Result<NativeResult> {
    NativeResult r;
    r.action = NativeResult::Action::kBlockReceive;
    r.port = request_port;
    r.dest_adreg = 3;
    r.compute = cycles::kReceive;
    return r;
  });
  a.Native([this](ExecutionContext&) -> Result<NativeResult> {
    BeginSweep();
    return NativeResult{};
  });
  // One bounded batch of descriptor checks per native instruction; time-slice end
  // interleaves the patrol with mutators exactly like the GC daemon.
  uint32_t step_pc = a.here();
  a.Native([this, step_pc](ExecutionContext&) -> Result<NativeResult> {
    uint64_t units_before = work_units_;
    bool more = Step(kUnitsPerStep);
    uint64_t scanned = work_units_ - units_before;
    NativeResult r;
    r.compute = scanned * cycles::kGcScanSlot / 2;
    r.bus = scanned * cycles::kBusPerWord / 8;
    if (more) {
      r.action = NativeResult::Action::kJump;
      r.jump_target = step_pc;
    }
    return r;
  });
  a.Native([this](ExecutionContext& env) -> Result<NativeResult> {
    AccessDescriptor reply = env.ad_reg(3);
    auto descriptor = kernel_->machine().table().Resolve(reply);
    if (descriptor.ok() && descriptor.value()->type == SystemType::kPort) {
      (void)kernel_->PostMessage(reply, env.process_ad());
    }
    env.set_ad_reg(3, AccessDescriptor());
    NativeResult r;
    r.compute = cycles::kSend;
    return r;
  });
  a.Branch(loop);

  ProcessOptions options;
  options.priority = priority;
  options.imax_level = kImaxLevelServices;
  IMAX_ASSIGN_OR_RETURN(AccessDescriptor daemon, kernel_->CreateProcess(a.Build(), options));
  // Patrol sweeps are recovery machinery: attribute their interpreter cycles accordingly.
  kernel_->machine().profiler().TagProcess(daemon.index(), CycleBucket::kFaultRecovery);
  IMAX_RETURN_IF_FAULT(kernel_->StartProcess(daemon));
  return request_port;
}

}  // namespace imax432
