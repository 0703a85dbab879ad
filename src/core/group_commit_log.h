// GroupCommitLog: durable, segmented record of each topology group's last
// globally committed transaction (LastCTS), with database checkpoints.
//
// §4.1: "the last committed transaction (LastCTS) per group is recorded.
// For recovery purposes, this information needs to be persistent."
//
// The log is a chain of append-only segments and the database's one redo
// log. Each commit appends one kReplicatedCommit record — its whole
// multi-group publication plus its write sets (core/commit_record.h), all
// or nothing, riding a WalWriter group-commit batch. Replay keeps the
// newest CTS per group AND the exact set of replayed commit timestamps;
// ReplayCommits then hands the records out in log order for data replay.
// Recovery keeps a backend-image version iff its CTS is covered by a
// checkpoint cut or appears in that set — images written before commits
// carried their data may hold a commit that never logged its record
// (aborted at the durability point), and it must be purged from every
// store even when a concurrent commit with a larger CTS did log.
//
// Segments roll by size: once the current segment holds
// kSegmentRollBytes, the commit whose record crossed the limit starts the
// next segment (WalWriter::RotateTo, the same drain-and-switch a checkpoint
// uses). No file outgrows the limit by more than one write batch, so a
// workload that never checkpoints still writes bounded files — one
// unbounded file hit the process's file-size limit (SIGXFSZ) mid-run.
//
// Checkpoints bound the chain (Database::Checkpoint drives the protocol):
//   1. RotateSegment()   — later commit records land in a fresh segment,
//      the checkpoint's own segment. Size rolls are held off from here
//      until step 3 ends (or AbandonCheckpoint()): replay starts at the
//      segment holding the cut, so a roll before the cut would strand the
//      post-rotation records in a segment replay never reads.
//   2. (the database drains in-flight commits, takes one
//      publication-seqlock-consistent LastCTS cut, writes every store's
//      images at or below it and flushes the backends)
//   3. WriteCheckpoint() — the cut becomes a durable kCheckpointCut record
//      in the checkpoint's segment; it subsumes every record in OLDER
//      segments (their commits published before the cut was taken, so the
//      images hold their versions).
//   4. PruneObsoleteSegments() — segments older than the checkpoint's own
//      are deleted. Not "all but the current one": a size roll after the
//      cut may already have moved appends past the cut's segment.
// Replay walks segments newest -> oldest until it finds one containing a
// complete checkpoint cut and max-merges that segment and everything newer,
// so restart work is bounded by data since the last checkpoint. A torn or
// failed checkpoint (crash anywhere in 1-4) leaves the previous segment
// chain authoritative: older segments are only deleted after the cut record
// is durable, and max-merge replay of extra segments is always sound.

#ifndef STREAMSI_CORE_GROUP_COMMIT_LOG_H_
#define STREAMSI_CORE_GROUP_COMMIT_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/wal.h"
#include "txn/types.h"

namespace streamsi {

class GroupCommitLog {
 public:
  /// Segment size at which RecordCommit rolls to a new segment.
  static constexpr std::uint64_t kSegmentRollBytes = 64ull << 20;

  GroupCommitLog(SyncMode sync_mode, std::uint64_t simulated_sync_micros,
                 Env* env = nullptr)
      : env_(env != nullptr ? env : Env::Default()),
        writer_(sync_mode, simulated_sync_micros, env) {}

  /// Opens the segment chain rooted at `path` (the root name doubles as
  /// segment 0 for on-disk compatibility with pre-checkpoint databases;
  /// later segments are `<path>.NNNNNN`). Appends continue on the newest
  /// existing segment.
  Status Open(const std::string& path);

  /// Appends one commit's whole publication — every affected group advances
  /// to `cts` — and its encoded `write_sets` as a single all-or-nothing
  /// kReplicatedCommit record (still ONE Append+Sync per group-commit
  /// batch). The payload buffer is thread-local and reused, so steady-state
  /// commits encode without heap allocation. The commit whose record takes
  /// the segment past the roll size starts the next segment after its own
  /// record is durable (outside a checkpoint window). Empty `write_sets` writes a
  /// data-less kGroupCommit record, the format of directories whose data
  /// lives in backend blobs (kept for tests that build such directories).
  Status RecordCommit(const GroupId* groups, std::size_t count, Timestamp cts,
                      bool sync, std::string_view write_sets = {});

  /// Records written / batches synced (group-commit amortization ratio).
  std::uint64_t batches_written() const { return writer_.batches_written(); }

  // ------------------------------------------------- checkpoint protocol ---

  /// Starts a fresh segment — the checkpoint's own — and holds off size
  /// rolls until WriteCheckpoint or AbandonCheckpoint. Step 1 of a
  /// checkpoint (see file comment).
  Status RotateSegment();

  /// Appends the LastCTS cut as a durable (synced) kCheckpointCut record,
  /// then lets size rolls resume (whatever the outcome).
  Status WriteCheckpoint(const std::pair<GroupId, Timestamp>* cut,
                         std::size_t count);

  /// Lets size rolls resume after a checkpoint that failed between
  /// RotateSegment and WriteCheckpoint. Idempotent.
  void AbandonCheckpoint();

  /// Deletes every segment older than the last checkpoint's own segment,
  /// except those at or above the retain floor (a replication slot: the
  /// shipper holds back segments it has not fully streamed yet). Failures
  /// leave the stale segments in place — replay stays correct (max-merge),
  /// only the disk footprint suffers until the next checkpoint retries.
  Status PruneObsoleteSegments();

  /// Replication slot: segments numbered >= `segment` survive pruning until
  /// the shipper advances the floor. kNoRetainFloor (the default) retains
  /// nothing extra.
  static constexpr std::uint64_t kNoRetainFloor = ~0ull;
  void SetRetainFloor(std::uint64_t segment) {
    retain_floor_.store(segment, std::memory_order_relaxed);
  }

  /// Newest (currently appended-to) segment number.
  std::uint64_t current_segment() const;
  /// Live on-disk segments, current included (footprint observability).
  std::size_t SegmentCount() const;
  /// Total on-disk bytes across live segments.
  std::uint64_t TotalSizeBytes() const;

  // ------------------------------------------------- replication read API ---

  /// The on-disk path of segment `n` of the chain rooted at `root` (n == 0
  /// is the bare root name).
  static std::string SegmentPath(const std::string& root, std::uint64_t n);

  /// All on-disk segment numbers of the chain at `root`, ascending. Static:
  /// a follower enumerates a SHIPPED chain it has no writer over.
  static Status ListSegmentsOnDisk(Env* env, const std::string& root,
                                   std::vector<std::uint64_t>* numbers) {
    return ListSegments(env != nullptr ? env : Env::Default(), root, numbers);
  }

  /// Snapshot of this log's live segment numbers, ascending (current
  /// included) — the shipper's work list, consistent under the log's own
  /// bookkeeping instead of a racy directory scan.
  void ListLiveSegments(std::vector<std::uint64_t>* numbers) const;

  /// Reads the frame-aligned tail of `path` past `offset`: the bytes
  /// [offset, L) where L is the valid-frame prefix of the file — only
  /// whole, CRC-complete frames are ever handed out, so shipped bytes
  /// always replay to whole records. `offset` beyond L yields empty (the
  /// receiver is ahead of the durable prefix; nothing to ship).
  static Status TailFrom(Env* env, const std::string& path,
                         std::uint64_t offset, std::string* out);

  // ----------------------------------------------------------- recovery ---

  struct ReplayInfo {
    std::uint64_t segments_present = 0;
    std::uint64_t segments_replayed = 0;
    std::uint64_t records = 0;
    bool from_checkpoint = false;
    /// Oldest segment replayed (the one holding the newest complete cut):
    /// where ReplayCommits starts.
    std::uint64_t first_segment = 0;
    /// Exact timestamps of the individual commit records replayed
    /// (kGroupCommit, kReplicatedCommit + legacy kCheckpoint). Recovery needs the exact set,
    /// not just the per-group max: a commit whose record never landed
    /// (aborted at the durability point) can hold a cts BELOW a later
    /// commit that did log — a single watermark would resurrect its
    /// partially-applied versions.
    std::unordered_set<Timestamp> committed_cts;
    /// Per-group watermarks from kCheckpointCut records only. A cut is
    /// wholesale coverage: every commit with cts <= watermark was durable
    /// and drained when the cut was taken (its individual record may since
    /// have been pruned).
    std::unordered_map<GroupId, Timestamp> cut_watermarks;
  };

  /// Replays the segment chain rooted at `path` and returns the newest CTS
  /// per group, starting from the newest complete checkpoint (older
  /// segments are skipped entirely). Decodes all three record eras:
  /// kGroupCommit, kCheckpointCut, and the legacy single-group kCheckpoint.
  static Result<std::unordered_map<GroupId, Timestamp>> Replay(
      const std::string& path, ReplayInfo* info = nullptr,
      Env* env = nullptr);

  /// Hands every kReplicatedCommit payload of segments >= `first_segment`
  /// to `fn` in log order — for each key, its cts order, because a key's
  /// commit lock is held until its record is durable.
  static Status ReplayCommits(
      const std::string& path, std::uint64_t first_segment,
      const std::function<Status(std::string_view payload)>& fn,
      Env* env = nullptr);

  Status Close() { return writer_.Close(); }

  /// OK, or the first IO error that poisoned the underlying writer (every
  /// later commit record fails with it). The health machine uses this to
  /// distinguish a one-shot injected failure from a dead commit path.
  Status WriterHealth() { return writer_.sticky_status(); }

  // ---------------------------------------------------- fault injection ---

  /// The next `n` RecordCommit calls fail with IoError (durability-hole
  /// tests — a failed durable record must fail the commit).
  void InjectRecordFailures(int n) {
    failures_to_inject_.store(n, std::memory_order_relaxed);
  }

  /// Where to fail the next checkpoint (crash-mid-checkpoint tests; the
  /// fault is consumed by the first checkpoint that reaches the point).
  enum class CheckpointFault {
    kNone,
    kBeforeRotate,            ///< the checkpoint dies before it starts
    kBeforeCheckpointRecord,  ///< images written and backends flushed, but
                              ///< the cut record never lands
    kBeforePrune,             ///< cut durable, old segments never deleted
  };
  void InjectCheckpointFault(CheckpointFault fault) {
    checkpoint_fault_.store(fault, std::memory_order_relaxed);
  }

 private:
  /// All on-disk segment numbers of the chain at `root`, ascending.
  static Status ListSegments(Env* env, const std::string& root,
                             std::vector<std::uint64_t>* numbers);
  /// Fails with IoError iff `point` is the armed fault (one-shot).
  Status ConsumeFault(CheckpointFault point);
  /// Size roll: starts the next segment if the current one still holds at
  /// least kSegmentRollBytes and no checkpoint window is open.
  void MaybeRoll();

  std::string root_path_;
  Env* env_;  ///< declared before writer_: the writer borrows it
  WalWriter writer_;
  mutable std::mutex segments_mutex_;
  std::vector<std::uint64_t> segments_;  ///< live on disk, ascending
  std::uint64_t current_segment_ = 0;    ///< under segments_mutex_
  /// The segment the last RotateSegment started (the segment opened at
  /// Open before any): pruning keeps it and everything newer.
  std::uint64_t checkpoint_segment_ = 0;  ///< under segments_mutex_
  /// RotateSegment..WriteCheckpoint: size rolls are held off.
  bool checkpoint_window_ = false;        ///< under segments_mutex_
  std::atomic<int> failures_to_inject_{0};
  std::atomic<CheckpointFault> checkpoint_fault_{CheckpointFault::kNone};
  std::atomic<std::uint64_t> retain_floor_{kNoRetainFloor};
};

}  // namespace streamsi

#endif  // STREAMSI_CORE_GROUP_COMMIT_LOG_H_
