#include "src/memory/swapping_memory_manager.h"

#include "src/base/check.h"
#include "src/base/log.h"

namespace imax432 {

Result<PhysAddr> SwappingMemoryManager::AllocateSpace(Sro* sro, uint32_t bytes) {
  // Try plain allocation first; on exhaustion, evict resident data parts from the same SRO
  // until the request fits or nothing evictable remains.
  for (;;) {
    auto base = BasicMemoryManager::AllocateSpace(sro, bytes);
    if (base.ok() || base.fault() != Fault::kStorageExhausted) {
      return base;
    }
    auto evicted = EvictOne(sro);
    if (!evicted.ok()) {
      if (evicted.fault() == Fault::kDeviceError) {
        return Fault::kDeviceError;  // swap device dead: distinct from plain exhaustion
      }
      return Fault::kStorageExhausted;  // genuinely out: not even eviction can help
    }
  }
}

Result<uint32_t> SwappingMemoryManager::StoreOutWithRetry(const std::vector<uint8_t>& data,
                                                          ObjectIndex index) {
  for (uint32_t attempt = 0;; ++attempt) {
    auto slot = store_.StoreOut(data);
    if (slot.ok() || slot.fault() != Fault::kDeviceError) {
      return slot;
    }
    if (attempt >= kMaxDeviceRetries) {
      ++device_errors_;
      return Fault::kDeviceError;
    }
    Cycles backoff = BackingStore::kAccessLatencyCycles << attempt;
    pending_penalty_ += backoff;
    ++device_retries_;
    machine()->observers().Emit({.kind = TraceEventKind::kDeviceRetry, .a = index,
                                 .b = attempt + 1, .c = static_cast<uint32_t>(backoff)});
  }
}

Result<std::vector<uint8_t>> SwappingMemoryManager::FetchInWithRetry(uint32_t slot,
                                                                     ObjectIndex index) {
  for (uint32_t attempt = 0;; ++attempt) {
    auto data = store_.FetchIn(slot);
    if (data.ok() || data.fault() != Fault::kDeviceError) {
      return data;
    }
    if (attempt >= kMaxDeviceRetries) {
      ++device_errors_;
      return Fault::kDeviceError;
    }
    Cycles backoff = BackingStore::kAccessLatencyCycles << attempt;
    pending_penalty_ += backoff;
    ++device_retries_;
    machine()->observers().Emit({.kind = TraceEventKind::kDeviceRetry, .a = index,
                                 .b = attempt + 1, .c = static_cast<uint32_t>(backoff)});
  }
}

Result<uint32_t> SwappingMemoryManager::EvictOne(Sro* sro) {
  const std::vector<ObjectIndex>& objects = sro->objects();
  if (objects.empty()) {
    return Fault::kStorageExhausted;
  }
  ObjectTable& table = machine()->table();
  // Round-robin scan (approximates the clock policy without per-object reference bits; the
  // emulated workloads exercise capacity behaviour, not recency precision). The cursor is
  // per-manager state, NOT a function-local static: a process-wide cursor would leak the
  // previous system's scan position into the next one and break bit-identical replay of
  // fault-injection campaigns run back-to-back in one process.
  for (size_t step = 0; step < objects.size(); ++step) {
    ObjectIndex index = objects[(evict_cursor_ + step) % objects.size()];
    ObjectDescriptor& descriptor = table.At(index);
    if (!descriptor.allocated || descriptor.swapped_out || !IsSwappable(descriptor)) {
      continue;
    }
    evict_cursor_ = static_cast<uint32_t>((evict_cursor_ + step + 1) % objects.size());

    // Stream the data part out.
    std::vector<uint8_t> data(descriptor.data_length);
    IMAX_CHECK(machine()->memory().ReadBlock(descriptor.data_base, data.data(),
                                             descriptor.data_length)
                   .ok());
    IMAX_ASSIGN_OR_RETURN(uint32_t slot, StoreOutWithRetry(data, index));
    sro->FreeRange(descriptor.data_base, descriptor.storage_claim);
    descriptor.swapped_out = true;
    descriptor.backing_slot = slot;
    mutable_stats().resident_bytes -= descriptor.data_length;
    ++swap_outs_;
    machine()->observers().Emit(
        {.kind = TraceEventKind::kSwapOut, .a = index, .b = descriptor.data_length});
    IMAX_LOG_DEBUG("swapped out object %u (%u bytes)", index, descriptor.data_length);
    return descriptor.storage_claim;
  }
  return Fault::kStorageExhausted;
}

Result<Cycles> SwappingMemoryManager::EnsureResident(ObjectIndex index) {
  ObjectDescriptor& descriptor = machine()->table().At(index);
  if (!descriptor.allocated) {
    return Fault::kNotAllocated;
  }
  if (!descriptor.swapped_out) {
    return Cycles{0};
  }
  auto it = sros().find(descriptor.origin_sro);
  if (it == sros().end()) {
    return Fault::kNotFound;
  }
  Sro* origin = it->second.get();

  // Re-place the data part; this may evict other objects (never this one: it is swapped).
  IMAX_ASSIGN_OR_RETURN(PhysAddr base, AllocateSpace(origin, descriptor.storage_claim));
  auto fetched = FetchInWithRetry(descriptor.backing_slot, index);
  if (!fetched.ok()) {
    // Give the space back: the object stays swapped out and the caller sees the device
    // error (typically delivered to the faulting process's fault port).
    origin->FreeRange(base, descriptor.storage_claim);
    SyncSroCounters(*origin);
    return fetched.fault();
  }
  std::vector<uint8_t> data = std::move(fetched).value();
  IMAX_CHECK(data.size() == descriptor.data_length);
  IMAX_CHECK(
      machine()->memory().WriteBlock(base, data.data(), descriptor.data_length).ok());
  descriptor.data_base = base;
  descriptor.swapped_out = false;
  mutable_stats().resident_bytes += descriptor.data_length;
  ++swap_ins_;
  machine()->observers().Emit(
      {.kind = TraceEventKind::kSwapIn, .a = index, .b = descriptor.data_length});
  SyncSroCounters(*origin);
  IMAX_LOG_DEBUG("swapped in object %u (%u bytes)", index, descriptor.data_length);
  // Charge this transfer plus any retry backoff accrued since the last fault (including
  // evict-path retries, which have no faulting process of their own to bill).
  Cycles cost = BackingStore::TransferCost(descriptor.data_length) + pending_penalty_;
  pending_penalty_ = 0;
  return cost;
}

MemoryStats SwappingMemoryManager::stats() const {
  MemoryStats combined = BasicMemoryManager::stats();
  combined.swap_ins = swap_ins_;
  combined.swap_outs = swap_outs_;
  combined.device_retries = device_retries_;
  combined.device_errors = device_errors_;
  combined.backing_peak_used = store_.peak_used();
  return combined;
}

}  // namespace imax432
