// TableBackend: the pluggable key-value mapping underneath a transactional
// state table.
//
// §4.1: "For the base table, any existing backend structure with a key-value
// mapping can be used. Therefore, every state type can use a suitable
// underlying structure making our design extremely versatile."
//
// The paper's evaluation used RocksDB (LSM, sync=true). This repo ships three
// from-scratch backends behind this interface:
//   * HashTableBackend  — volatile, sharded hash map (fastest, no ordering)
//   * SkipListBackend   — volatile, ordered (range scans)
//   * LsmBackend        — persistent log-structured merge store with WAL,
//                         memtable, SSTables, compaction and recovery;
//                         the RocksDB stand-in for the paper's experiments.

#ifndef STREAMSI_STORAGE_BACKEND_H_
#define STREAMSI_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace streamsi {

class Env;

/// How writes are made durable.
enum class SyncMode {
  kNone,       ///< No durability guarantee (volatile backends, async tests).
  kFsync,      ///< fsync(2) the WAL on every synchronous write (paper setup).
  kSimulated,  ///< Deterministic artificial latency instead of real fsync —
               ///< reproduces the paper's "synchronous write dominates" shape
               ///< on any hardware/filesystem.
};

/// Options shared by all backends.
struct BackendOptions {
  /// Durability mode for writes (LsmBackend only; ignored by volatile ones).
  SyncMode sync_mode = SyncMode::kNone;
  /// Latency injected per synchronous write when sync_mode == kSimulated.
  std::uint64_t simulated_sync_micros = 50;
  /// Memtable size that triggers a flush to SSTable.
  std::size_t memtable_bytes = 8 * 1024 * 1024;
  /// Number of L0 SSTables that triggers a compaction.
  int l0_compaction_trigger = 4;
  /// Admission bound for the background flush worker (LsmBackend): a writer
  /// that fills the active memtable seals it and moves on; only when this
  /// many sealed memtables are already queued for flushing does the writer
  /// stall until the worker catches up (the memtable ceiling).
  int max_sealed_memtables = 2;
  /// Bits per key for SSTable bloom filters (0 disables).
  int bloom_bits_per_key = 10;
  /// Block size for SSTable data blocks.
  std::size_t block_bytes = 4 * 1024;
  /// Directory for persistent backends.
  std::string path;
  /// Storage environment for all file IO (nullptr = Env::Default()). Tests
  /// inject a FaultEnv here to simulate crashes and disk faults.
  Env* env = nullptr;
  /// Background flush/compaction failures are retried this many times with
  /// bounded exponential backoff before the store is poisoned. NoSpace and
  /// Corruption are not retried (retrying cannot help).
  int flush_retry_attempts = 3;
  /// Initial backoff between background retries; doubles per attempt.
  std::uint64_t flush_retry_backoff_ms = 2;
  /// Invoked (once, off the caller's commit path) when the background
  /// worker exhausts its retries and poisons the store. The database hooks
  /// this to degrade itself to read-only instead of silently losing the
  /// flush pipeline.
  std::function<void(const Status&)> on_background_failure;
};

/// Abstract key-value mapping. All methods are thread-safe.
class TableBackend {
 public:
  virtual ~TableBackend() = default;

  /// Visitor for scans; return false to stop early.
  using ScanCallback =
      std::function<bool(std::string_view key, std::string_view value)>;

  /// Looks up `key`; NotFound if absent.
  virtual Status Get(std::string_view key, std::string* value) const = 0;

  /// Inserts or replaces `key`. If `sync`, the write is durable on return
  /// (according to the backend's SyncMode).
  virtual Status Put(std::string_view key, std::string_view value,
                     bool sync) = 0;

  /// Removes `key` (idempotent).
  virtual Status Delete(std::string_view key, bool sync) = 0;

  /// Visits all live entries.
  ///
  /// Ordering contract per backend (do not rely on more than this):
  ///   * HashTableBackend — UNORDERED: shard-by-shard hash-map walk; the
  ///     visit order is arbitrary and changes across runs.
  ///   * SkipListBackend  — key order (byte-wise lexicographic).
  ///   * LsmBackend       — key order (newest-wins merge of memtable +
  ///     sealed memtables + SSTables).
  /// Range reads never come here: `VersionedStore::ScanRangeCommitted`
  /// serves them from the store-level ordered index over any backend.
  virtual Status Scan(const ScanCallback& callback) const = 0;

  /// Number of live entries (exact for volatile backends, may count
  /// tombstoned duplicates approximately for LSM).
  virtual std::uint64_t ApproximateCount() const = 0;

  /// Forces buffered data to durable storage (volatile backends: no-op).
  virtual Status Flush() = 0;

  /// True if entries survive Close()/reopen.
  virtual bool IsPersistent() const = 0;

  /// Name for diagnostics ("hash", "skiplist", "lsm").
  virtual std::string_view Name() const = 0;

  /// Sticky background health: OK, or the error that poisoned the store
  /// (LSM flush/compaction failure after retries). Volatile backends are
  /// always healthy.
  virtual Status HealthStatus() const { return Status::OK(); }

  /// Background flush/compaction attempts that were retried after a
  /// transient failure (observability for the health report).
  virtual std::uint64_t FlushRetries() const { return 0; }
};

/// Which backend to instantiate.
enum class BackendType { kHash, kSkipList, kLsm };

/// Factory. For kLsm, `options.path` must be set; the directory is created
/// if missing and existing data is recovered.
Result<std::unique_ptr<TableBackend>> OpenBackend(BackendType type,
                                                  const BackendOptions& options);

/// Parses "hash" / "skiplist" / "lsm".
Result<BackendType> ParseBackendType(std::string_view name);

}  // namespace streamsi

#endif  // STREAMSI_STORAGE_BACKEND_H_
