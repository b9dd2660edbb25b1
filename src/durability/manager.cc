#include "durability/manager.h"

#include <utility>

#include "common/clock.h"
#include "durability/framed_io.h"

namespace fw {
namespace durability {

DurabilityManager::DurabilityManager(const DurabilityOptions& options,
                                     telemetry::MetricsRegistry* metrics)
    : options_(options),
      wal_records_counter_(metrics->GetCounter("durability.wal_records")),
      wal_bytes_counter_(metrics->GetCounter("durability.wal_bytes")),
      fsyncs_counter_(metrics->GetCounter("durability.wal_fsyncs")),
      snapshots_counter_(metrics->GetCounter("durability.snapshots")),
      truncate_failures_counter_(
          metrics->GetCounter("durability.truncate_failures")),
      fsync_hist_(metrics->GetHistogram("durability.wal_fsync_ns")),
      snapshot_hist_(metrics->GetHistogram("durability.snapshot_ns")) {}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::CreateFresh(
    const DurabilityOptions& options, telemetry::MetricsRegistry* metrics) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability enabled without a dir");
  }
  FW_RETURN_IF_ERROR(EnsureDir(options.dir));
  Result<std::vector<std::string>> names = ListDir(options.dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq) ||
        ParseSnapshotFileName(name, &seq)) {
      return Status::AlreadyExists(
          "durability dir '" + options.dir + "' already holds " + name +
          "; recover it with StreamSession::Recover instead of starting "
          "fresh over it");
    }
  }
  auto manager = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(options, metrics));
  FW_RETURN_IF_ERROR(manager->wal_.Open(options.dir, 0));
  return manager;
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Attach(
    const DurabilityOptions& options, uint64_t next_seq,
    telemetry::MetricsRegistry* metrics) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability enabled without a dir");
  }
  FW_RETURN_IF_ERROR(EnsureDir(options.dir));
  auto manager = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(options, metrics));
  FW_RETURN_IF_ERROR(manager->wal_.Open(options.dir, next_seq));
  return manager;
}

Status DurabilityManager::AppendEvents(const EventsView& events) {
  const uint64_t before = wal_.bytes_written();
  FW_RETURN_IF_ERROR(wal_.AppendInPlace(
      kWalEvents, EventsPayloadSize(events.count),
      [&events](char* out) { EncodeEventsPayload(events, out); }));
  return Commit(before, events.count);
}

Status DurabilityManager::AppendChurn(uint8_t type,
                                      const std::string& payload) {
  const uint64_t before = wal_.bytes_written();
  FW_RETURN_IF_ERROR(wal_.Append(type, payload));
  return Commit(before, 0);
}

Status DurabilityManager::Commit(uint64_t bytes_before,
                                 uint64_t events_in_record) {
  const uint64_t bytes = wal_.bytes_written() - bytes_before;
  ++counters_.wal_records;
  counters_.wal_bytes += bytes;
  wal_records_counter_->Increment(0);
  wal_bytes_counter_->Add(0, bytes);
  events_since_snapshot_ += events_in_record;

  switch (options_.fsync_policy) {
    case FsyncPolicy::kNone:
      return Status::OK();
    case FsyncPolicy::kEveryBatch:
      return SyncNow();
    case FsyncPolicy::kInterval:
      events_since_sync_ += events_in_record;
      // Churn records sync immediately (events_in_record == 0 marks
      // them): they are rare, and an unsynced subscription change is a
      // worse loss than an unsynced batch.
      if (events_in_record == 0 ||
          events_since_sync_ >= options_.fsync_interval_events) {
        return SyncNow();
      }
      return Status::OK();
  }
  return Status::Internal("unreachable fsync policy");
}

Status DurabilityManager::SyncNow() {
  MonotonicTimer timer;
  FW_RETURN_IF_ERROR(wal_.Sync());
  fsync_hist_->Record(0, timer.ElapsedNanos());
  ++counters_.wal_fsyncs;
  fsyncs_counter_->Increment(0);
  events_since_sync_ = 0;
  return Status::OK();
}

Status DurabilityManager::AppendAddQuery(uint64_t id,
                                         const StreamQuery& query) {
  return AppendChurn(kWalAddQuery, EncodeQueryPayload(id, query));
}

Status DurabilityManager::AppendRemoveQuery(uint64_t id) {
  return AppendChurn(kWalRemoveQuery, EncodeRemoveQueryPayload(id));
}

bool DurabilityManager::SnapshotDue() const {
  return options_.snapshot_interval_events > 0 &&
         events_since_snapshot_ >= options_.snapshot_interval_events;
}

Status DurabilityManager::WriteSnapshot(SnapshotContents contents) {
  // The snapshot covers everything appended so far: it is taken between
  // records, after the batch that made it due was both logged and
  // applied.
  contents.meta.covered_seq = wal_.next_seq();
  FW_RETURN_IF_ERROR(WriteSnapshotFile(options_.dir, contents));

  // The snapshot is durable: roll a fresh segment (base == covered_seq),
  // then truncate everything it covers. Strictly in that order — the new
  // segment demotes the old newest one, whose torn tail is only
  // tolerable once the snapshot covers its whole range.
  FW_RETURN_IF_ERROR(wal_.Roll());
  NoteSnapshotPublished(contents.meta.covered_seq);
  return Status::OK();
}

void DurabilityManager::NoteSnapshotPublished(uint64_t covered_seq) {
  ++counters_.snapshots_written;
  snapshots_counter_->Increment(0);
  events_since_snapshot_ = 0;

  // Delete every segment and snapshot the new snapshot makes redundant.
  // Best-effort, but counted: ReadChangelog skips segments that fall
  // entirely below the snapshot's coverage (torn or not), so a leftover
  // costs disk, never recoverability — truncate_failures flags the leak.
  Result<std::vector<std::string>> names = ListDir(options_.dir);
  if (!names.ok()) {
    ++counters_.truncate_failures;
    truncate_failures_counter_->Increment(0);
    return;
  }
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    const bool covered =
        (ParseSegmentFileName(name, &seq) && seq < wal_.segment_base()) ||
        (ParseSnapshotFileName(name, &seq) && seq < covered_seq);
    if (covered && !RemoveFile(options_.dir + "/" + name).ok()) {
      ++counters_.truncate_failures;
      truncate_failures_counter_->Increment(0);
    }
  }
}

}  // namespace durability
}  // namespace fw
