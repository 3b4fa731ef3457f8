#include "src/arch/object_table.h"

#include "src/base/check.h"

namespace imax432 {

ObjectTable::ObjectTable(uint32_t capacity) {
  IMAX_CHECK(capacity > 0 && capacity < kInvalidObjectIndex);
  slots_.resize(capacity);
  allocated_bits_.assign((capacity + 63) / 64, 0);
  free_list_.reserve(capacity);
  // Hand out low indices first: push in reverse so pop_back yields ascending order.
  for (uint32_t i = capacity; i > 0; --i) {
    free_list_.push_back(i - 1);
  }
}

Result<ObjectIndex> ObjectTable::Allocate(SystemType type, Level level, PhysAddr data_base,
                                          uint32_t data_length, uint32_t access_slots,
                                          ObjectIndex origin_sro, uint32_t storage_claim) {
  if (data_length > kMaxDataPartBytes || access_slots > kMaxAccessPartSlots) {
    return Fault::kSegmentTooLarge;
  }
  if (free_list_.empty()) {
    return Fault::kObjectTableFull;
  }
  ObjectIndex index = free_list_.back();
  free_list_.pop_back();

  ObjectDescriptor& slot = slots_[index];
  IMAX_DCHECK(!slot.allocated);
  slot.allocated = true;
  slot.type = type;
  slot.level = level;
  slot.data_base = data_base;
  slot.data_length = data_length;
  slot.access.assign(access_slots, AccessDescriptor());
  slot.type_def = kInvalidObjectIndex;
  slot.origin_sro = origin_sro;
  slot.color = GcColor::kWhite;
  slot.gc_exempt = false;
  slot.finalized = false;
  slot.swapped_out = false;
  slot.backing_slot = 0;
  slot.data_epoch = 0;
  slot.quarantined = false;
  slot.storage_claim = storage_claim;
  slot.sro_position = kNoSroPosition;
  slot.checksum = DescriptorChecksum(slot);
  allocated_bits_[index / 64] |= uint64_t{1} << (index % 64);
  ++live_count_;
  return index;
}

Status ObjectTable::Free(ObjectIndex index) {
  if (index >= capacity()) {
    return Fault::kInvalidAccess;
  }
  ObjectDescriptor& slot = slots_[index];
  if (!slot.allocated) {
    return Fault::kNotAllocated;
  }
  slot.allocated = false;
  slot.access.clear();
  slot.access.shrink_to_fit();
  slot.quarantined = false;
  ++slot.generation;
  allocated_bits_[index / 64] &= ~(uint64_t{1} << (index % 64));
  --live_count_;
  free_list_.push_back(index);
  return Status::Ok();
}

uint32_t ObjectTable::DescriptorChecksum(const ObjectDescriptor& descriptor) {
  // FNV-1a over the identity fields; cheap and stable across platforms.
  uint32_t hash = 2166136261u;
  auto mix = [&hash](uint32_t word) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (word >> shift) & 0xFFu;
      hash *= 16777619u;
    }
  };
  mix(static_cast<uint32_t>(descriptor.type));
  mix(static_cast<uint32_t>(descriptor.level));
  mix(descriptor.data_length);
  mix(descriptor.access_count());
  mix(descriptor.origin_sro);
  return hash;
}

void ObjectTable::Seal(ObjectIndex index) {
  IMAX_CHECK(index < capacity());
  ObjectDescriptor& slot = slots_[index];
  IMAX_CHECK(slot.allocated);
  slot.checksum = DescriptorChecksum(slot);
}

Result<ObjectDescriptor*> ObjectTable::Resolve(const AccessDescriptor& ad) {
  if (ad.is_null()) {
    return Fault::kNullAccess;
  }
  if (ad.index() >= capacity()) {
    return Fault::kInvalidAccess;
  }
  ObjectDescriptor& slot = slots_[ad.index()];
  if (!slot.allocated || slot.generation != ad.generation()) {
    return Fault::kInvalidAccess;
  }
  return &slot;
}

Result<const ObjectDescriptor*> ObjectTable::Resolve(const AccessDescriptor& ad) const {
  auto result = const_cast<ObjectTable*>(this)->Resolve(ad);
  if (!result.ok()) {
    return result.fault();
  }
  return static_cast<const ObjectDescriptor*>(result.value());
}

Result<AccessDescriptor> ObjectTable::MintAd(ObjectIndex index, RightsMask ad_rights) const {
  if (index >= capacity()) {
    return Fault::kInvalidAccess;
  }
  const ObjectDescriptor& slot = slots_[index];
  if (!slot.allocated) {
    return Fault::kNotAllocated;
  }
  return AccessDescriptor(index, slot.generation, ad_rights);
}

ObjectDescriptor& ObjectTable::At(ObjectIndex index) {
  IMAX_CHECK(index < capacity());
  return slots_[index];
}

const ObjectDescriptor& ObjectTable::At(ObjectIndex index) const {
  IMAX_CHECK(index < capacity());
  return slots_[index];
}

}  // namespace imax432
