// Write-ahead log: CRC-framed append-only record log with configurable
// durability (fsync per batch, or deterministic simulated sync latency).
//
// Record frame: [masked crc32c(4)] [payload_len(4)] [type(1)] [payload].
// The CRC covers type + payload. Torn tails (partial final record after a
// crash) are detected and truncated during replay.
//
// Group commit (leader/follower): concurrent synchronous appenders encode
// their records into a shared pending batch under the writer mutex; the
// first of them becomes the batch leader, writes and syncs the whole batch
// with the mutex *released*, and everyone whose record rode in that batch
// returns once the batch's generation is durable. Committers that arrive
// while a leader's sync is in flight accumulate the next batch — one
// fsync (or simulated sync sleep) amortizes over every commit in the batch
// instead of serializing per record.

#ifndef STREAMSI_STORAGE_WAL_H_
#define STREAMSI_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/env.h"
#include "common/status.h"
#include "storage/backend.h"

namespace streamsi {

/// Logical record types inside the WAL.
enum class WalRecordType : unsigned char {
  kPut = 1,
  kDelete = 2,
  kCheckpoint = 3,     ///< legacy single-group LastCTS record (decode only)
  kGroupCommit = 4,    ///< one commit's LastCTS advance across all its groups
                       ///< with no data (written before commit records
                       ///< carried their write sets; decode only)
  kCheckpointCut = 5,  ///< full LastCTS snapshot: every group's value at one
                       ///< publication-seqlock-consistent cut (checkpoints)
  kStateDecl = 6,      ///< catalog: one state declaration
  kGroupDecl = 7,      ///< catalog: one topology-group declaration
  kReplicatedCommit = 8,  ///< kGroupCommit payload + the commit's write sets:
                          ///< every commit's redo record (recovery and
                          ///< followers replay data from the log alone).
                          ///< Replays everywhere a kGroupCommit does — the
                          ///< payload is a strict superset.
  kIndexDecl = 9,  ///< catalog: one secondary-index binding (index state
                   ///< derived from a base state)
};

/// Append-only writer. Thread-safe; synchronous appends use group commit.
class WalWriter {
 public:
  WalWriter(SyncMode sync_mode, std::uint64_t simulated_sync_micros,
            Env* env = nullptr)
      : env_(env != nullptr ? env : Env::Default()),
        sync_mode_(sync_mode),
        simulated_sync_micros_(simulated_sync_micros) {}

  Status Open(const std::string& path, bool truncate);

  /// Appends one record; if `sync`, it is durable on return per SyncMode
  /// (possibly batched with concurrent appenders — one sync per batch).
  /// Unsynced appends are written through immediately unless a batch sync
  /// is in flight, in which case they ride with the next batch write.
  Status Append(WalRecordType type, std::string_view payload, bool sync);

  /// Total bytes appended so far (including bytes still in the pending
  /// batch buffer).
  std::uint64_t size() const {
    return appended_bytes_.load(std::memory_order_acquire);
  }

  /// Number of batch writes performed (observability: group-commit ratio =
  /// records appended / batches synced).
  std::uint64_t batches_written() const {
    return batches_written_.load(std::memory_order_relaxed);
  }

  Status SyncNow();

  /// The first IO error this writer hit, if any. Once set, every later
  /// append fails with it — the health machine probes this to decide
  /// whether the commit path is permanently poisoned.
  Status sticky_status() {
    std::lock_guard<std::mutex> guard(mutex_);
    return sticky_status_;
  }

  /// Segment rotation: drains every in-flight batch and parked sync waiter
  /// (their records become durable in the CURRENT file), then atomically
  /// switches appends over to `path` (created/truncated). Concurrent
  /// appenders simply land on one side of the switch — every record lives
  /// in exactly one segment. Callers own naming and deletion of obsolete
  /// segments (checkpoint truncation, LSM memtable seals).
  Status RotateTo(const std::string& path);

  Status Close();

 private:
  Status ApplySync();
  /// Appends one framed record to `out` using no temporary buffers.
  static void EncodeRecordTo(std::string* out, WalRecordType type,
                             std::string_view payload);
  /// Writes the accumulated pending batch through to the file (no sync).
  /// Caller holds mutex_ and there is no leader in flight.
  Status FlushPendingLocked();
  /// Leader/follower protocol: returns once every batch up to `my_batch`
  /// is durable (leading batches ourselves whenever no leader is active).
  Status AwaitDurableLocked(std::unique_lock<std::mutex>& lk,
                            std::uint64_t my_batch);

  std::mutex mutex_;
  std::condition_variable cv_;
  Env* env_;
  std::unique_ptr<WritableFile> file_;
  SyncMode sync_mode_;
  std::uint64_t simulated_sync_micros_;

  // Group-commit state, all under mutex_ (except the atomics).
  std::string pending_;   ///< batch currently accumulating
  std::string writing_;   ///< batch the leader is writing (buffer reused)
  bool leader_active_ = false;
  bool sync_requested_ = false;  ///< pending batch contains a sync record
  /// RotateTo is draining the queue: new appends wait for the new file, so
  /// the drain cannot starve behind a steady stream of committers.
  bool rotating_ = false;
  std::uint64_t accumulating_batch_ = 1;  ///< id of the pending batch
  std::uint64_t durable_batch_ = 0;       ///< highest batch synced
  Status sticky_status_;  ///< first IO error; poisons all later appends
  std::atomic<std::uint64_t> appended_bytes_{0};
  std::atomic<std::uint64_t> batches_written_{0};
};

/// Sequential replay of a WAL file.
///
/// The visitor receives each well-formed record in order. Replay stops at
/// the first corrupt/torn record; that is reported as OK with
/// `tail_truncated = true` (crash tail), because an interrupted final write
/// is expected after a crash. A torn group-commit batch therefore recovers
/// to a prefix of whole records — i.e. a prefix of whole commits, since
/// each commit's group records form a single record.
class WalReader {
 public:
  struct ReplayStats {
    std::uint64_t records = 0;
    /// Byte offset where replay stopped: the length of the valid record
    /// prefix. Equals the file size unless the tail was torn. Reopeners
    /// use it to avoid appending after torn garbage (records appended
    /// beyond a bad frame would be unreachable to every future replay).
    std::uint64_t valid_bytes = 0;
    bool tail_truncated = false;
  };

  using Visitor =
      std::function<Status(WalRecordType type, std::string_view payload)>;

  static Status Replay(const std::string& path, const Visitor& visitor,
                       ReplayStats* stats, Env* env = nullptr);

  /// Length of the longest prefix of `contents` made of whole, CRC-valid
  /// frames — the same boundary Replay stops at, computed without invoking
  /// a visitor. Log shipping uses it to hand out only complete frames of a
  /// live segment (a frame-aligned tail).
  static std::uint64_t ValidFramePrefix(std::string_view contents);
};

}  // namespace streamsi

#endif  // STREAMSI_STORAGE_WAL_H_
