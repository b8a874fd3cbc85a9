#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "array/atom.h"
#include "common/result.h"

namespace turbdb {

/// Per-node write-ahead log for the ingest path: every atom accepted by
/// an ingest RPC is appended here (and the log fsynced once per batch)
/// before the batch is acknowledged, so an acknowledged batch survives a
/// crash even when the backing atom store had not reached stable storage
/// yet. On restart the node replays the log into its stores (idempotent:
/// atoms the store already holds are skipped) *before* serving and before
/// any epoch-driven replica re-sync runs, then truncates it.
///
/// On-disk record format (little-endian), one record per atom:
///   u32 magic          'TWAL'
///   u32 payload_bytes
///   u32 crc32(payload)
///   payload:
///     varint-free fixed layout via the atom-store conventions:
///     u16 dataset_len, dataset bytes
///     u16 field_len, field bytes
///     i32 timestep, u64 zindex, i32 width, i32 ncomp
///     f32 data[width^3 * ncomp]
///
/// A torn or corrupt tail (crash mid-append, or the `wal.torn_tail`
/// fault) is truncated away at open — everything before it replays. The
/// log is an append-only redo log: Truncate() (the checkpoint) may only
/// be called after the covered stores were fsynced.
class WriteAheadLog {
 public:
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if needed) the log at `path`, scanning existing
  /// records and truncating a torn tail.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path);

  /// Appends one atom record. Under the `wal.torn_tail` fault site the
  /// record is deliberately cut short (only the fault's `arg` bytes are
  /// written) to simulate a crash mid-append.
  Status Append(const std::string& dataset, const std::string& field,
                const Atom& atom);

  /// fsyncs the log. Called once per ingest batch, before the batch is
  /// acked.
  Status Sync();

  /// One replayable record.
  struct Record {
    std::string dataset;
    std::string field;
    Atom atom;
  };

  /// Replays every intact record in append order. The callback's status
  /// aborts the replay when non-OK.
  Status Replay(const std::function<Status(const Record&)>& fn) const;

  /// Checkpoint: empties the log (and fsyncs the empty file). Only safe
  /// after every store covered by the pending records was fsynced.
  Status Truncate();

  /// Records appended (or recovered at open) since the last Truncate —
  /// the node's "WAL lag" surfaced in stats.
  uint64_t pending_records() const;
  uint64_t pending_bytes() const;

  /// True when Open found and cut a torn/corrupt tail — evidence of an
  /// unclean shutdown.
  bool tail_truncated_at_open() const { return tail_truncated_; }

  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, int fd);

  /// Scans the file, truncating at the first torn/corrupt record.
  Status Recover();

  std::string path_;
  int fd_ = -1;
  bool tail_truncated_ = false;

  mutable std::mutex mutex_;
  uint64_t file_size_ = 0;
  uint64_t records_ = 0;
};

}  // namespace turbdb
