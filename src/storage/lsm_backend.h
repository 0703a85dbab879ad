// LsmBackend: persistent log-structured merge key-value store built from
// scratch — the stand-in for RocksDB in the paper's evaluation (§5.1: LSM
// design, default config, sync=true for failure atomicity).
//
// Architecture:
//   Put/Delete -> WAL append (sync per SyncMode) -> memtable (skip list)
//   memtable full -> SEALED (immutable) + fresh memtable + WAL segment
//                    rotation; a background worker flushes sealed memtables
//                    to SSTables, updates the manifest and deletes the WAL
//                    segments they covered
//   too many SSTables -> full merge compaction (newest-wins), also on the
//                    background worker
//   Get -> memtable, sealed memtables (newest first), SSTables newest-first
//   recovery -> manifest (live SSTables) + replay of every live WAL segment
//               (oldest first) into a fresh memtable
//
// Writers never pay a flush or compaction inline: sealing is a pointer swap
// plus a WAL rotation. The only writer stall is bounded admission — when
// `max_sealed_memtables` sealed memtables are already queued (the worker
// cannot keep up), the sealing writer waits for the queue to drain below
// the ceiling (`FlushStallCount` counts these).
//
// Readers never block behind writers: they grab an immutable snapshot
// (shared_ptr to the current Version) and read lock-free structures.

#ifndef STREAMSI_STORAGE_LSM_BACKEND_H_
#define STREAMSI_STORAGE_LSM_BACKEND_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/latch.h"
#include "storage/backend.h"
#include "storage/skiplist.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace streamsi {

class LsmBackend final : public TableBackend {
 public:
  /// Opens (and recovers) the store in `options.path`.
  static Result<std::unique_ptr<LsmBackend>> Open(const BackendOptions& options);

  ~LsmBackend() override;

  Status Get(std::string_view key, std::string* value) const override;
  Status Put(std::string_view key, std::string_view value, bool sync) override;
  Status Delete(std::string_view key, bool sync) override;
  Status Scan(const ScanCallback& callback) const override;
  std::uint64_t ApproximateCount() const override;
  /// Synchronous barrier: seals the active memtable (if non-empty) and
  /// waits until the background worker has flushed every queued memtable
  /// (and run any triggered compaction). Checkpoints and tests use this;
  /// the commit path never does.
  Status Flush() override;
  bool IsPersistent() const override { return true; }
  std::string_view Name() const override { return "lsm"; }

  /// Diagnostics.
  int SsTableCount() const;
  std::uint64_t FlushCount() const {
    return flushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t CompactionCount() const {
    return compactions_.load(std::memory_order_relaxed);
  }
  /// Flushes (of FlushCount) performed on the background worker thread.
  /// The do-not-regress invariant "flush/compaction never run inline on a
  /// writer's thread" is exactly FlushCount() == BackgroundFlushCount()
  /// (and the same for compactions) — pinned by tests.
  std::uint64_t BackgroundFlushCount() const {
    return background_flushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t BackgroundCompactionCount() const {
    return background_compactions_.load(std::memory_order_relaxed);
  }
  /// Writers that hit the sealed-memtable ceiling and had to wait.
  std::uint64_t FlushStallCount() const {
    return flush_stalls_.load(std::memory_order_relaxed);
  }
  int SealedMemtableCount() const;

  /// Sticky background status: OK, or the failure that poisoned the store
  /// after the worker exhausted its retries.
  Status HealthStatus() const override;
  std::uint64_t FlushRetries() const override {
    return flush_retries_.load(std::memory_order_relaxed);
  }

 private:
  explicit LsmBackend(const BackendOptions& options);

  /// Immutable view of the store used by readers.
  struct Version {
    std::shared_ptr<SkipList> mem;
    /// Sealed, flush-pending memtables, newest first.
    std::vector<std::shared_ptr<SkipList>> sealed;
    // Newest first; a hit in an earlier element shadows later ones.
    std::vector<std::shared_ptr<SsTableReader>> tables;
  };

  /// One sealed memtable queued for the background worker. `sealed_through`
  /// is the newest WAL segment containing its records: once the memtable is
  /// durable in an SSTable, every segment <= sealed_through is obsolete
  /// (FIFO: older memtables flush first, so an older segment never outlives
  /// a newer one — which is what keeps stale-WAL shadowing impossible on
  /// recovery).
  struct FlushJob {
    std::shared_ptr<SkipList> mem;
    std::uint64_t sealed_through = 0;
  };

  std::shared_ptr<const Version> CurrentVersion() const;
  void InstallVersion(std::shared_ptr<const Version> v);

  Status Recover();
  Status WriteInternal(std::string_view key, std::string_view value,
                       bool tombstone, bool sync);
  /// Must hold write_mutex_. Seals the (non-empty) active memtable: stalls
  /// at the admission ceiling, rotates the WAL to a fresh segment, installs
  /// a Version with a fresh memtable and hands the sealed one to the
  /// background worker.
  Status SealMemTableLocked();
  /// Background worker only: writes `job.mem` to a new SSTable, publishes
  /// it (manifest + version), and deletes the WAL segments it covered.
  Status FlushJobToSsTable(const FlushJob& job);
  /// Background worker only: full merge compaction when the SSTable count
  /// exceeds the trigger.
  Status MaybeCompact();
  Status WriteManifest(const std::vector<std::uint64_t>& files);
  void BackgroundWorker();
  /// Background worker only: runs `op`, retrying transient failures up to
  /// options_.flush_retry_attempts times with doubling backoff. NoSpace and
  /// Corruption are terminal (retrying a full disk or bad checksum cannot
  /// help); a stop request or existing poisoning cuts the retries short.
  Status RunWithRetries(const char* what, const std::function<Status()>& op);

  std::string SsTablePath(std::uint64_t number) const;
  /// Segment 0 keeps the historical "wal.log" name (pre-segment databases
  /// recover as a one-segment chain); later segments are wal_NNNNNN.log.
  std::string WalSegmentPath(std::uint64_t number) const;
  std::string ManifestPath() const { return options_.path + "/MANIFEST"; }

  BackendOptions options_;
  Env* env_;

  mutable SpinLock version_lock_;
  std::shared_ptr<const Version> version_;
  /// Serializes read-modify-write Version installs (writer seals vs worker
  /// flush/compaction publishes). Held only for the pointer swap.
  std::mutex version_update_mutex_;

  std::mutex write_mutex_;  // serializes writers + seal decisions
  std::unique_ptr<WalWriter> wal_;        // active segment, under write_mutex_
  std::uint64_t active_wal_segment_ = 0;  // under write_mutex_

  // Background-worker state.
  mutable std::mutex work_mutex_;
  std::condition_variable work_cv_;   ///< wakes the worker (new job / stop)
  std::condition_variable done_cv_;   ///< wakes stalled writers + Flush()
  std::deque<FlushJob> flush_queue_;  ///< under work_mutex_
  std::vector<std::uint64_t> live_wal_segments_;  ///< under work_mutex_
  std::uint64_t jobs_submitted_ = 0;  ///< under work_mutex_
  std::uint64_t jobs_done_ = 0;       ///< under work_mutex_
  Status bg_status_;  ///< sticky first background failure, under work_mutex_
  /// Lock-free mirror of "bg_status_ is not OK" for the per-write check.
  std::atomic<bool> bg_failed_{false};
  bool stop_worker_ = false;
  std::thread worker_;

  // Worker-thread-only state (single worker; no lock needed).
  std::vector<std::uint64_t> live_files_;  // newest first
  std::uint64_t next_file_number_ = 1;

  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> background_flushes_{0};
  std::atomic<std::uint64_t> background_compactions_{0};
  std::atomic<std::uint64_t> flush_stalls_{0};
  std::atomic<std::uint64_t> flush_retries_{0};
};

}  // namespace streamsi

#endif  // STREAMSI_STORAGE_LSM_BACKEND_H_
