#ifndef FW_DURABILITY_MANAGER_H_
#define FW_DURABILITY_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "durability/options.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "exec/columns.h"
#include "query/query.h"
#include "telemetry/metrics.h"

namespace fw {
namespace durability {

/// Owns a session's durability files (DESIGN.md §16): appends admitted
/// batches and churn to the write-ahead changelog under the configured
/// fsync policy, decides when a snapshot is due, and — when the session
/// hands one over — publishes it atomically and truncates every
/// changelog segment it covers.
///
/// Driven from the session's caller thread only (like all session
/// state); holds no locks. Fail-stop: the session latches the first
/// append/snapshot error and refuses further ingest, so the on-disk log
/// never silently diverges from the in-memory state.
class DurabilityManager {
 public:
  /// For a brand-new session: creates `options.dir` if missing and opens
  /// segment wal-0. Refuses a directory that already holds changelog
  /// segments or snapshots — that state belongs to a previous session;
  /// use StreamSession::Recover (or point the session elsewhere).
  static Result<std::unique_ptr<DurabilityManager>> CreateFresh(
      const DurabilityOptions& options, telemetry::MetricsRegistry* metrics);

  /// For a recovered session: resumes logging into a fresh segment at
  /// `next_seq`. Existing files stay until the post-recovery snapshot
  /// truncates them.
  static Result<std::unique_ptr<DurabilityManager>> Attach(
      const DurabilityOptions& options, uint64_t next_seq,
      telemetry::MetricsRegistry* metrics);

  /// Appends one admitted batch (write-ahead: call before applying the
  /// events), then applies the fsync policy. The record is encoded
  /// straight into the changelog's mapping.
  Status AppendEvents(const EventsView& events);
  /// A whole batch.
  Status AppendEvents(const EventColumns& columns) {
    return AppendEvents(EventsView::Prefix(columns, columns.size()));
  }
  /// Churn records. Always synced under kInterval too — churn is rare
  /// and losing a query subscription is worse than losing a batch.
  Status AppendAddQuery(uint64_t id, const StreamQuery& query);
  Status AppendRemoveQuery(uint64_t id);

  /// True once snapshot_interval_events admitted events accumulated
  /// since the last snapshot (never under interval 0).
  bool SnapshotDue() const;

  /// Publishes `contents` (covered_seq is filled in here: everything
  /// appended so far), rolls a fresh segment, then deletes the covered
  /// segments and any older snapshots. Deletion failures are non-fatal
  /// (counted in truncate_failures) — ReadChangelog skips segments a
  /// snapshot fully covers, so a leftover only costs disk, never
  /// correctness.
  Status WriteSnapshot(SnapshotContents contents);

  /// Records a snapshot covering `covered_seq` that was published
  /// *outside* this manager, and truncates the files it covers. Recover
  /// uses this: the recovery snapshot must hit disk before Attach opens
  /// a new segment (opening first would demote the crashed run's torn
  /// newest segment while records past the old snapshot's coverage could
  /// still be lost in it), so the publish happens pre-attach and the
  /// bookkeeping lands here. Requires covered_seq == segment_base().
  void NoteSnapshotPublished(uint64_t covered_seq);

  /// Records one snapshot's wall time, checkpoint build through publish
  /// and roll, into "durability.snapshot_ns". The session times it: the
  /// checkpoint is built on its side.
  void RecordSnapshotNanos(uint64_t nanos) {
    snapshot_hist_->Record(0, nanos);
  }

  struct Counters {
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_fsyncs = 0;
    uint64_t snapshots_written = 0;
    /// Covered files truncation could not delete (leaked disk, flagged).
    uint64_t truncate_failures = 0;
  };
  const Counters& counters() const { return counters_; }
  uint64_t next_seq() const { return wal_.next_seq(); }
  const std::string& dir() const { return options_.dir; }

 private:
  DurabilityManager(const DurabilityOptions& options,
                    telemetry::MetricsRegistry* metrics);

  /// Appends a churn record (a string payload; churn is rare).
  Status AppendChurn(uint8_t type, const std::string& payload);
  /// Counts the record appended after `bytes_before` changelog bytes,
  /// then applies the fsync policy.
  Status Commit(uint64_t bytes_before, uint64_t events_in_record);
  Status SyncNow();

  DurabilityOptions options_;
  WalWriter wal_;
  Counters counters_;
  uint64_t events_since_sync_ = 0;
  uint64_t events_since_snapshot_ = 0;

  telemetry::Counter* const wal_records_counter_;
  telemetry::Counter* const wal_bytes_counter_;
  telemetry::Counter* const fsyncs_counter_;
  telemetry::Counter* const snapshots_counter_;
  telemetry::Counter* const truncate_failures_counter_;
  /// fsync latency distribution ("durability.wal_fsync_ns").
  telemetry::Histogram* const fsync_hist_;
  /// Whole-snapshot latency distribution ("durability.snapshot_ns").
  telemetry::Histogram* const snapshot_hist_;
};

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_MANAGER_H_
