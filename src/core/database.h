// Database: the top-level facade. Owns the state context, the concurrency
// protocol, all transactional state tables, the durable state catalog and
// the segmented group-commit log; performs crash recovery on open and
// bounds restart work with checkpoints.

#ifndef STREAMSI_CORE_DATABASE_H_
#define STREAMSI_CORE_DATABASE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/group_commit_log.h"
#include "core/state_catalog.h"
#include "core/transaction_manager.h"
#include "replication/transport.h"
#include "storage/backend.h"
#include "txn/protocol.h"
#include "txn/state_context.h"
#include "txn/versioned_store.h"

namespace streamsi {

class LogShipper;
class FollowerApplier;

struct DatabaseOptions {
  /// Concurrency-control protocol for all states.
  ProtocolType protocol = ProtocolType::kMvcc;
  /// Base-table backend for newly created states.
  BackendType backend = BackendType::kHash;
  /// Backend tuning (path is derived per state from base_dir).
  BackendOptions backend_options;
  /// Store tuning (version slots, growth, writer backpressure).
  StoreOptions store_options;
  /// Directory for persistent data (LSM backends + group commit log).
  /// Empty => fully volatile database.
  std::string base_dir;
  /// Run the global EpochManager's background reclaimer while this database
  /// is open: retired garbage (replaced value buffers, grown bucket tables
  /// and version arrays) drains on a steady cadence instead of the
  /// opportunistic every-N-retires sweep. Stopped — ref-counted across
  /// databases — before the stores are torn down.
  bool background_epoch_reclaim = true;
  /// Reclaimer cadence (milliseconds between drain passes).
  std::uint32_t epoch_reclaim_interval_ms = 1;
  /// Background checkpoint cadence (milliseconds); 0 = manual Checkpoint()
  /// only. Each checkpoint snapshots all groups' LastCTS, writes every
  /// store's images up to that cut into its backend and truncates the
  /// group-commit log, so restart work stays bounded by data since the last
  /// checkpoint.
  std::uint32_t checkpoint_interval_ms = 0;
  /// Threads for parallel recovery (LoadFromBackend + version purge fan out
  /// across stores); 0 = hardware concurrency.
  std::uint32_t recovery_threads = 0;
  /// Storage environment for ALL file IO (group log, catalog, LSM backends).
  /// nullptr => Env::Default() (POSIX). Tests inject a FaultEnv here to
  /// simulate power cuts, torn writes, full disks and failing syncs.
  Env* env = nullptr;
  /// Single-primary log-shipping replication (see src/replication/).
  struct Replication {
    ReplicationRole role = ReplicationRole::kNone;
    /// Primary only: where the log streams to (borrowed; must outlive the
    /// database). Typically an EnvFileTransport aimed at the follower's
    /// base_dir.
    ShipTransport* transport = nullptr;
    /// Cadences of the background ship/apply loops.
    std::uint32_t ship_interval_ms = 2;
    std::uint32_t apply_interval_ms = 2;
    /// Consecutive failed ship rounds before Health() reports the link
    /// down (shipping keeps retrying; the primary stays writable).
    std::uint32_t ship_retry_limit = 5;
    std::uint32_t ship_retry_backoff_ms = 1;
    /// Tests: no background ship/apply threads; drive the link manually
    /// with ShipNow()/ApplyShippedNow() for deterministic interleavings.
    bool manual_pump = false;
    /// Negative-control knob (torture harness): false makes the follower
    /// apply shipped frames without verifying their CRCs.
    bool verify_shipped_crc = true;
  };
  Replication replication;
  /// Deliberate protocol misorderings, compiled in so the crash-torture
  /// harness can prove it would catch a real bug (negative controls).
  struct TestHooks {
    /// Prune the old segment chain BEFORE the checkpoint cut is durable —
    /// the exact ordering bug the checkpoint protocol exists to prevent. A
    /// crash between the two loses acked commits; the torture verifier must
    /// flag it.
    bool checkpoint_prune_before_cut = false;
  };
  TestHooks test_hooks;
};

/// Database health, transitioned by the IO-failure classifier:
///   kHealthy           — all systems go.
///   kDegradedReadOnly  — storage can no longer accept writes (ENOSPC, a
///                        sticky-poisoned log writer, or an LSM flush worker
///                        that exhausted its retries). Reads and scans keep
///                        serving from the in-memory MVCC state; write
///                        commits fail fast with Status::Unavailable.
///   kFailed            — integrity is in doubt (corruption detected at
///                        runtime); nothing should trust this instance.
/// Transitions are monotone: health only ever gets worse until reopen.
enum class DatabaseHealth { kHealthy, kDegradedReadOnly, kFailed };

/// Snapshot of the database's health for operators and tests.
struct HealthReport {
  DatabaseHealth state = DatabaseHealth::kHealthy;
  /// The error that caused the first transition out of kHealthy (OK while
  /// healthy).
  Status first_error;
  /// Commit-path IO failures observed (including transient ones that did
  /// not degrade).
  std::uint64_t commit_io_failures = 0;
  /// Write commits rejected with Unavailable because of degraded health.
  std::uint64_t degraded_commit_rejections = 0;
  /// Per-store background health.
  struct StoreHealth {
    std::string name;
    Status backend_status;        ///< sticky background status (LSM worker)
    std::uint64_t flush_retries;  ///< background retry attempts so far
  };
  std::vector<StoreHealth> stores;
  /// Replication link state (meaningful when replication_configured).
  bool replication_configured = false;
  /// Serving replayed snapshots only; write commits fail fast Unavailable.
  bool follower = false;
  /// Was a follower, now writable (Promote() completed).
  bool promoted = false;
  /// Shipper stats on a primary, applier stats on a follower — including
  /// the staleness lag (primary watermark - follower watermark).
  ReplicationStats replication;
};

class Database {
 public:
  /// Opens (creating `base_dir` if needed). When a durable state catalog
  /// exists from a previous life, every state and topology group is
  /// reopened from it and recovery runs before Open returns — the database
  /// is ready to serve without the application re-declaring its schema.
  /// First-time (or volatile) databases declare states afterwards with
  /// CreateState/CreateGroup, then call Recover().
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& options);

  ~Database();

  /// Creates a state table, or returns the existing store when `name` is
  /// already known (a catalog-reopened state or an earlier call) — so
  /// schema declarations stay idempotent across restarts. Every new state
  /// automatically forms a singleton topology group so that single-state
  /// queries get LastCTS-based snapshots and recovery too.
  Result<VersionedStore*> CreateState(const std::string& name);

  /// Declares that `states` are updated together by one stream query
  /// (topology group, §4.1/§4.3). Re-declaring an identical explicit group
  /// (same state set) returns the existing group instead of duplicating it.
  /// Returns kInvalidGroupId if the durable catalog append failed (the
  /// group is then not registered at all).
  GroupId CreateGroup(const std::vector<StateId>& states);

  /// Creates (or re-binds after reopen) a secondary index over `base_name`:
  /// a separate state named `index_name` whose rows are the composite keys
  /// [extractor(key, value)][0x00][key] -> key (see core/index_key.h). The
  /// index joins the base in one topology group, so §4.3's single LastCTS
  /// publication makes base and index rows visible atomically; maintenance
  /// happens inside the SAME GlobalCommit that writes the base. MVCC only
  /// (the baseline protocols refuse range scans anyway). The extractor must
  /// be deterministic and never emit a 0x00 byte.
  ///
  /// Durable databases persist the binding in the state catalog; on reopen,
  /// write commits on the base refuse with Unavailable until the
  /// application calls CreateIndex again with the (non-persistable)
  /// extractor — re-binding is idempotent and backfills nothing. A fresh
  /// index over an already-populated base is backfilled from the base's
  /// committed snapshot before this returns; run it before concurrent
  /// writers touch the base.
  Result<VersionedStore*> CreateIndex(
      const std::string& base_name, const std::string& index_name,
      TransactionManager::IndexKeyExtractor extractor);

  /// Latch-free: one load from the append-only store directory (the
  /// commit path resolves a store for every write).
  VersionedStore* GetState(StateId id);
  VersionedStore* FindState(const std::string& name);

  /// Restores group LastCTS from the commit log (starting at the newest
  /// checkpoint), loads every store's checkpoint images (LoadFromBackend +
  /// purge fan out across stores on a thread pool), replays the log
  /// records above each store's cut and fast-forwards the clock. Runs
  /// automatically inside Open when a catalog exists; calling it again is a
  /// no-op, so legacy code that re-declares its schema and then calls
  /// Recover() keeps working.
  Status Recover();

  /// Durability checkpoint: rotates the group-commit log to a fresh
  /// segment, drains in-flight commits, takes one publication-seqlock-
  /// consistent LastCTS cut, writes each store's images of the keys
  /// modified since their last image (versions at or below the cut) and
  /// flushes every backend, then writes the cut as a durable checkpoint
  /// record and deletes the obsolete segments. Restart work (and log disk
  /// footprint) is thereafter bounded by data since this checkpoint. Safe
  /// to call concurrently with commits; checkpoint calls serialize among
  /// themselves. No-op for volatile databases. A failure anywhere leaves
  /// the previous segment chain authoritative — nothing is deleted before
  /// the checkpoint record is durable.
  Status Checkpoint();

  /// Completed checkpoints (manual + background).
  std::uint64_t CheckpointCount() const {
    return checkpoints_completed_.load(std::memory_order_relaxed);
  }

  /// Current health state (cheap: one relaxed atomic load).
  DatabaseHealth health() const {
    return health_.load(std::memory_order_relaxed);
  }

  /// Full health snapshot: state, first error, failure/rejection counters
  /// and every store's background status + flush retry count.
  HealthReport Health() const;

  /// True while this database is a replication follower that has not been
  /// promoted: reads serve the replayed per-group LastCTS cut, write
  /// commits and checkpoints fail fast with Unavailable.
  bool IsUnpromotedFollower() const {
    return options_.replication.role == ReplicationRole::kFollower &&
           !promoted_.load(std::memory_order_acquire);
  }

  /// Promotes a follower to writable. Promotion IS recovery: the applier is
  /// stopped and drained to the end of the shipped stream (Unavailable if
  /// it cannot catch up — e.g. a mid-frame tail the dead primary never
  /// completed is NOT a reason to fail, but a sticky Corruption is), then
  /// the standard parallel recovery replays the shipped chain, purges
  /// anything beyond the exact committed-record set and fast-forwards the
  /// clock; the chain is reopened for appending (a torn newest segment is
  /// retired exactly like a crashed primary's would be); a checkpoint of
  /// the node's own writes its images and prunes the shipped chain; and
  /// the commit path flips writable. Idempotent. To restart a promoted
  /// node from disk, reopen its directory as a standalone (or primary)
  /// database: it is a normal durable directory by then, and the standard
  /// Open-time recovery applies.
  Status Promote();

  /// Manual replication pumping (manual_pump mode and tests): one ship
  /// round on a primary / one apply round on a follower.
  Status ShipNow();
  Status ApplyShippedNow();

  StateContext& context() { return context_; }
  TransactionManager& txn_manager() { return *txn_manager_; }
  ConcurrencyProtocol& protocol() { return *protocol_; }
  const DatabaseOptions& options() const { return options_; }
  /// The durable group-commit log (nullptr for volatile databases). Tests
  /// use it for segment accounting and checkpoint fault injection.
  GroupCommitLog* group_log() { return group_log_.get(); }

  /// Convenience: begins a transaction.
  Result<std::unique_ptr<TransactionHandle>> Begin() {
    return txn_manager_->Begin();
  }

 private:
  explicit Database(const DatabaseOptions& options);

  std::string StateDir(const std::string& name) const;
  std::string GroupLogPath() const {
    return options_.base_dir + "/group_commits.log";
  }
  std::string CatalogPath() const { return options_.base_dir + "/catalog.log"; }

  /// Shared creation path. `declared` carries the catalog record to replay
  /// (reopen) or null for a fresh state (which is then appended to the
  /// catalog). Registration runs under the exclusive stores latch, so ids
  /// are assigned race-free.
  Result<VersionedStore*> CreateStateInternal(
      const std::string& name, const StateCatalog::StateRecord* declared);
  /// Replays catalog declarations not applied yet (reopening every newly
  /// declared state and group). Re-runnable: Open uses it for the initial
  /// replay, a follower's applier calls it each round to pick up schema the
  /// primary declared since.
  Status ApplyCatalogTail();
  Status RecoverInternal();
  /// The store's checkpoint cut: the max cut over its groups. Images hold
  /// the versions at or below it; recovery replays the log above it.
  Timestamp CoveredCts(StateId state,
                       const std::unordered_map<GroupId, Timestamp>& cut) const;
  /// Set-based purge of what a store loaded from its backend.
  void PurgeRecoveredImage(VersionedStore* store,
                           const GroupCommitLog::ReplayInfo& info);
  /// Replays the data-carrying log records above each of `stores`' cuts,
  /// in log order (other states' blocks are skipped).
  Status ReplayLogData(const GroupCommitLog::ReplayInfo& info,
                       const std::vector<VersionedStore*>& stores);
  /// The checkpoint protocol body; Checkpoint() wraps it with health
  /// admission and failure classification.
  Status DoCheckpoint();
  void CheckpointLoop();

  /// Classifies a commit-path IO failure: NoSpace degrades to read-only,
  /// corruption fails the instance, and a transient one-shot error is only
  /// counted — unless it sticky-poisoned the group log's writer, in which
  /// case every future commit would fail anyway and we degrade now.
  void NoteIoFailure(const Status& status);
  /// A background flush/compaction worker poisoned itself AFTER exhausting
  /// its bounded retries — persistent by definition, so always transition.
  void NoteBackgroundFailure(const Status& status);
  /// Monotone health transition (never back toward healthy); records the
  /// first error that left kHealthy.
  void TransitionTo(DatabaseHealth target, const Status& cause);
  /// Commit admission gate handed to the TransactionManager: OK while
  /// healthy, Unavailable (with the first error's message) once degraded.
  Status AdmitCommit();

  DatabaseOptions options_;
  Env* env_ = nullptr;  ///< resolved: options_.env or Env::Default()
  /// One StartBackgroundReclaimer reference held between Open and
  /// destruction (released before the stores die).
  bool reclaimer_started_ = false;
  StateContext context_;
  std::unique_ptr<ConcurrencyProtocol> protocol_;
  std::unique_ptr<GroupCommitLog> group_log_;
  std::unique_ptr<StateCatalog> catalog_;
  std::unique_ptr<TransactionManager> txn_manager_;

  /// Replication machinery (at most one of the two, per role).
  std::unique_ptr<LogShipper> shipper_;
  std::unique_ptr<FollowerApplier> applier_;
  /// Follower flipped writable by Promote().
  std::atomic<bool> promoted_{false};
  /// Catalog declarations already applied (Open thread, then only the
  /// applier thread via ApplyCatalogTail).
  std::size_t catalog_applied_ = 0;
  /// Opened with role kFollower: catalog replay remaps state locations into
  /// OUR base_dir (the primary's declared paths are its own) and never
  /// schedules backend loads — follower state is rebuilt from the shipped
  /// stream alone.
  bool follower_mode_ = false;

  /// Health machine. The state itself is a lock-free atomic (read on every
  /// commit admission); the mutex only guards the first-error record.
  /// Declared BEFORE the stores: an LSM store's background worker can fire
  /// on_background_failure while the stores are being torn down, and the
  /// callback must find these alive.
  std::atomic<DatabaseHealth> health_{DatabaseHealth::kHealthy};
  mutable std::mutex health_mutex_;
  Status first_health_error_;  ///< under health_mutex_
  std::atomic<std::uint64_t> commit_io_failures_{0};
  std::atomic<std::uint64_t> degraded_commit_rejections_{0};

  /// Publishes `store` under `id` in the directory. Caller holds
  /// stores_latch_ exclusively.
  void PublishStoreLocked(StateId id, VersionedStore* store);

  /// Append-only store directory read by GetState without a latch: chunks
  /// of atomic store pointers, allocated on demand under the exclusive
  /// stores_latch_ and never freed or repointed before the database dies,
  /// so a reader either sees nullptr (unknown id) or the final pointer.
  static constexpr std::size_t kDirectoryChunk = 256;
  static constexpr std::size_t kMaxStates = kDirectoryChunk * 256;
  std::array<std::atomic<std::atomic<VersionedStore*>*>,
             kMaxStates / kDirectoryChunk>
      directory_{};
  /// Owns the directory chunks (declared before stores_, so they outlive
  /// every store). Under stores_latch_.
  std::vector<std::unique_ptr<std::atomic<VersionedStore*>[]>>
      directory_chunks_;
  mutable RwLatch stores_latch_;
  std::vector<std::unique_ptr<VersionedStore>> stores_;  // index = StateId
  std::unordered_map<std::string, StateId> stores_by_name_;
  std::unordered_map<StateId, GroupId> singleton_groups_;
  /// Secondary-index topology: index state -> its base state. Mirrors the
  /// TransactionManager's bindings but keyed the other way (CreateIndex's
  /// idempotence check asks "is THIS index already bound to THAT base?").
  /// Under stores_latch_.
  std::unordered_map<StateId, StateId> index_base_;
  /// Catalog-reopened states whose backend data has not been loaded yet;
  /// RecoverInternal drains this in parallel. Under stores_latch_.
  std::vector<StateId> pending_loads_;
  /// Persistent states declared (pre-catalog upgrade path) AFTER recovery
  /// already ran — a partially-upgraded directory can reopen with a
  /// catalog covering only some states; the app's re-declaration of the
  /// rest loads their images with no purge and no log replay applied. The
  /// next Recover() call purges, replays + clock-advances exactly these.
  /// Under stores_latch_.
  std::vector<StateId> post_recovery_loads_;
  bool recovered_ = false;  ///< under stores_latch_

  /// Serializes Checkpoint() calls (manual + background thread).
  std::mutex checkpoint_mutex_;
  std::atomic<std::uint64_t> checkpoints_completed_{0};
  std::mutex checkpointer_mutex_;
  std::condition_variable checkpointer_cv_;
  bool stop_checkpointer_ = false;  ///< under checkpointer_mutex_
  std::thread checkpointer_;
};

}  // namespace streamsi

#endif  // STREAMSI_CORE_DATABASE_H_
