#include "src/filing/journal.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/sim/machine.h"

namespace imax432 {

namespace {

// FNV-1a/32: the same family the patrol uses for data CRCs; enough to catch torn and
// bit-rotted records in a simulated medium.
uint32_t Fnv32(uint32_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 16777619u;
  }
  return hash;
}
constexpr uint32_t kFnvBasis = 2166136261u;

void PutU32(std::vector<uint8_t>& out, uint32_t value) {
  out.push_back(static_cast<uint8_t>(value));
  out.push_back(static_cast<uint8_t>(value >> 8));
  out.push_back(static_cast<uint8_t>(value >> 16));
  out.push_back(static_cast<uint8_t>(value >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t value) {
  PutU32(out, static_cast<uint32_t>(value));
  PutU32(out, static_cast<uint32_t>(value >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) | static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

// CRC input: seq, type, payload_len, payload — everything the header protects except the
// magic (framing) and the crc field itself.
uint32_t RecordCrc(uint64_t seq, JournalRecordType type, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> prefix;
  prefix.reserve(13);
  PutU64(prefix, seq);
  prefix.push_back(static_cast<uint8_t>(type));
  PutU32(prefix, static_cast<uint32_t>(payload.size()));
  uint32_t crc = Fnv32(kFnvBasis, prefix.data(), prefix.size());
  return Fnv32(crc, payload.data(), payload.size());
}

// Replay refuses absurd lengths up front so one corrupt length field cannot make the
// parser treat megabytes of log as a single phantom payload.
constexpr uint32_t kMaxPayloadBytes = 16u * 1024 * 1024;

}  // namespace

const char* JournalRecordTypeName(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::kFileImage: return "file-image";
    case JournalRecordType::kFileComposite: return "file-composite";
    case JournalRecordType::kRemove: return "remove";
    case JournalRecordType::kCommit: return "commit";
    case JournalRecordType::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

CounterMap CountersFor(const JournalStats& stats) {
  return {
      {"appends", stats.appends},
      {"commits", stats.commits},
      {"bytes_appended", stats.bytes_appended},
      {"syncs", stats.syncs},
      {"retries", stats.retries},
      {"backoff_cycles", stats.backoff_cycles},
      {"device_errors", stats.device_errors},
      {"checkpoints", stats.checkpoints},
      {"replayed_records", stats.replayed_records},
      {"replayed_transactions", stats.replayed_transactions},
      {"torn_tail_truncations", stats.torn_tail_truncations},
      {"corrupt_records_dropped", stats.corrupt_records_dropped},
      {"orphan_commits", stats.orphan_commits},
      {"rolled_back_transactions", stats.rolled_back_transactions},
  };
}

std::vector<uint8_t> Journal::EncodeRecord(uint64_t seq, JournalRecordType type,
                                           const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kRecordHeaderBytes + payload.size());
  PutU32(out, kRecordMagic);
  PutU64(out, seq);
  out.push_back(static_cast<uint8_t>(type));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, RecordCrc(seq, type, payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status Journal::AppendWithRetry(const std::vector<uint8_t>& batch) {
  size_t mark = device_->tail_size();
  for (uint32_t attempt = 0; attempt < kMaxAppendAttempts; ++attempt) {
    Status status = device_->Append(batch.data(), batch.size());
    if (status.ok()) {
      return Status::Ok();
    }
    if (attempt + 1 == kMaxAppendAttempts) {
      break;
    }
    // Same shape as the swap device's retry loop: exponential backoff charged to stats
    // (the journal runs off the event queue, not a processor's instruction stream).
    Cycles backoff = StableStore::kAccessLatencyCycles << attempt;
    ++stats_.retries;
    stats_.backoff_cycles += backoff;
    if (machine_ != nullptr) {
      machine_->observers().Emit({.kind = TraceEventKind::kFilingOp,
                                  .a = static_cast<uint32_t>(FilingOpKind::kJournalRetry),
                                  .b = attempt + 1, .c = static_cast<uint32_t>(backoff)});
    }
  }
  device_->TruncateTail(mark);
  ++stats_.device_errors;
  return Fault::kDeviceError;
}

void Journal::ScheduleSync(uint64_t target_mutations, uint32_t batch_bytes) {
  if (machine_ == nullptr) {
    CompleteSync(target_mutations);
    return;
  }
  machine_->events().ScheduleAfter(
      StableStore::TransferCost(batch_bytes),
      [this, target_mutations] { CompleteSync(target_mutations); });
}

void Journal::CompleteSync(uint64_t target_mutations) {
  if (durable_mutations_ >= target_mutations) {
    return;  // an earlier flush already drained the tail past this transaction
  }
  Status status = device_->Sync();
  if (!status.ok()) {
    // The device refused the flush; the tail stays volatile. A later transaction's sync
    // (or the next checkpoint) retries; if power is cut first, the tail tears — which is
    // exactly what an unsynced journal means.
    ++stats_.retries;
    return;
  }
  ++stats_.syncs;
  // A sync drains the whole volatile tail, so everything appended so far is now durable,
  // including transactions whose own sync callbacks have not fired yet.
  stats_.commits += appended_mutations_ - durable_mutations_;
  durable_mutations_ = appended_mutations_;
}

Status Journal::Commit(JournalRecordType type, const std::vector<uint8_t>& payload) {
  uint64_t seq = next_seq_;
  std::vector<uint8_t> batch = EncodeRecord(seq, type, payload);
  std::vector<uint8_t> commit = EncodeRecord(seq, JournalRecordType::kCommit, {});
  batch.insert(batch.end(), commit.begin(), commit.end());
  IMAX_RETURN_IF_FAULT(AppendWithRetry(batch));
  next_seq_ = seq + 1;
  ++appended_mutations_;
  ++stats_.appends;
  stats_.bytes_appended += batch.size();
  ScheduleSync(appended_mutations_, static_cast<uint32_t>(batch.size()));
  return Status::Ok();
}

Status Journal::WriteCheckpoint(const std::vector<uint8_t>& snapshot) {
  uint64_t seq = next_seq_;
  std::vector<uint8_t> record = EncodeRecord(seq, JournalRecordType::kCheckpoint, snapshot);
  Status status;
  for (uint32_t attempt = 0; attempt < kMaxAppendAttempts; ++attempt) {
    status = device_->Overwrite(record);
    if (status.ok()) {
      break;
    }
    Cycles backoff = StableStore::kAccessLatencyCycles << attempt;
    ++stats_.retries;
    stats_.backoff_cycles += backoff;
  }
  if (!status.ok()) {
    ++stats_.device_errors;
    return status.fault();
  }
  // Overwrite is the atomic new-log swap: the checkpoint is durable and every earlier
  // record — synced or still volatile — is superseded by the snapshot that contains its
  // effects.
  next_seq_ = seq + 1;
  stats_.commits += appended_mutations_ - durable_mutations_;
  durable_mutations_ = appended_mutations_;
  ++stats_.checkpoints;
  if (machine_ != nullptr) {
    machine_->observers().Emit({.kind = TraceEventKind::kFilingOp,
                                .a = static_cast<uint32_t>(FilingOpKind::kJournalCheckpoint),
                                .b = static_cast<uint32_t>(record.size())});
  }
  return Status::Ok();
}

Status Journal::Replay(const ApplyFn& apply) {
  IMAX_ASSIGN_OR_RETURN(std::vector<uint8_t> log, device_->ReadAll());

  struct Pending {
    uint64_t seq = 0;
    JournalRecordType type = JournalRecordType::kCommit;
    std::vector<uint8_t> payload;
    bool active = false;
  };
  Pending pending;
  uint64_t max_seq = 0;
  size_t offset = 0;

  while (offset < log.size()) {
    size_t remaining = log.size() - offset;
    if (remaining < kRecordHeaderBytes) {
      ++stats_.torn_tail_truncations;  // header cut mid-write: the torn tail
      break;
    }
    const uint8_t* header = log.data() + offset;
    if (GetU32(header) != kRecordMagic) {
      // Framing lost: nothing after this point can be trusted to start on a record
      // boundary, so the rest of the log is dropped (and the pending mutation with it).
      ++stats_.corrupt_records_dropped;
      break;
    }
    uint64_t seq = GetU64(header + 4);
    JournalRecordType type = static_cast<JournalRecordType>(header[12]);
    uint32_t payload_len = GetU32(header + 16);
    uint32_t crc = GetU32(header + 20);
    if (payload_len > kMaxPayloadBytes) {
      ++stats_.corrupt_records_dropped;
      break;
    }
    if (remaining < kRecordHeaderBytes + payload_len) {
      ++stats_.torn_tail_truncations;  // payload cut mid-write
      break;
    }
    std::vector<uint8_t> payload(header + kRecordHeaderBytes,
                                 header + kRecordHeaderBytes + payload_len);
    if (RecordCrc(seq, type, payload) != crc) {
      ++stats_.corrupt_records_dropped;
      break;
    }
    offset += kRecordHeaderBytes + payload_len;
    ++stats_.replayed_records;
    max_seq = std::max(max_seq, seq);

    switch (type) {
      case JournalRecordType::kCheckpoint:
        // A checkpoint supersedes all earlier state, including any dangling mutation.
        if (pending.active) {
          ++stats_.rolled_back_transactions;
          pending.active = false;
        }
        if (apply(type, payload).ok()) {
          ++stats_.replayed_transactions;
        } else {
          ++stats_.rolled_back_transactions;
        }
        break;
      case JournalRecordType::kCommit:
        if (pending.active && pending.seq == seq) {
          if (apply(pending.type, pending.payload).ok()) {
            ++stats_.replayed_transactions;
          } else {
            ++stats_.rolled_back_transactions;
          }
          pending.active = false;
        } else {
          ++stats_.orphan_commits;  // a seal with no matching mutation record
        }
        break;
      case JournalRecordType::kFileImage:
      case JournalRecordType::kFileComposite:
      case JournalRecordType::kRemove:
        if (pending.active) {
          ++stats_.rolled_back_transactions;  // mutation never sealed by its commit
        }
        pending.seq = seq;
        pending.type = type;
        pending.payload = std::move(payload);
        pending.active = true;
        break;
    }
  }
  if (pending.active) {
    ++stats_.rolled_back_transactions;  // log ended before the sealing commit
  }
  next_seq_ = max_seq + 1;
  return Status::Ok();
}

}  // namespace imax432
