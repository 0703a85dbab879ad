// VersionedStore: the untyped transactional table wrapper of §4.1 —
// a sharded in-memory map of key -> (latch, MvccObject) in front of a
// pluggable TableBackend that persistently stores the committed version
// arrays.
//
// Readers operate entirely on the in-memory MVCC objects ("readers (mostly
// only accessing memory)", §5.2). Commits touch memory only: their redo
// lives in the group-commit log. The backend holds checkpoint images —
// each key's versions at or below a checkpoint cut, written by
// WriteCheckpointImages — and recovery rebuilds from those images plus the
// log records above the cut (ReplayCommitted).
//
// Read-path design (zero allocation, latch-minimal):
//   * Each shard's key index is an open-addressed bucket table of atomic
//     Entry pointers, probed directly with the caller's std::string_view —
//     no std::string is ever materialized for a lookup, and readers take no
//     latch at all. Inserts take the shard latch exclusively; growth
//     publishes a new table with a release store and retires the old one to
//     the EpochManager, so in-flight readers finish their probe on the old
//     table safely. Entries themselves are never freed before the store
//     dies, so an Entry* stays valid once obtained.
//   * Version access is an optimistic seqlock read (see MvccObject): probe,
//     validate, retry on writer interference, and only after
//     kOptimisticRetries failed attempts fall back to the shared per-entry
//     latch for guaranteed progress. Readers therefore never block writers
//     and writers never wait for readers.
//   * A read's only synchronization is one epoch-guard store on entry/exit
//     of the critical section plus the seqlock validation loads.

#ifndef STREAMSI_TXN_VERSIONED_STORE_H_
#define STREAMSI_TXN_VERSIONED_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "common/latch.h"
#include "common/random.h"
#include "mvcc/mvcc_object.h"
#include "storage/backend.h"
#include "txn/types.h"

namespace streamsi {

/// Tuning knobs of one store.
struct StoreOptions {
  /// Initial version-array capacity per key (<= 64). Small on purpose: most
  /// keys hold a version or two, keys that are never rewritten (deleted
  /// index composites) keep their array for the store's lifetime, and a
  /// full array garbage-collects before it grows.
  int mvcc_slots = 4;
  /// Adaptive-growth ceiling: a full version array whose on-demand GC frees
  /// nothing (every version pinned by some snapshot) is replaced with a
  /// doubled copy up to this many slots instead of failing the commit
  /// (<= 64). Set equal to mvcc_slots to disable growth.
  int mvcc_slots_max = 64;
  /// Bounded writer backpressure: at mvcc_slots_max with nothing
  /// reclaimable, a committing install waits up to this long (total, across
  /// floor re-resolutions) for the lagging snapshot pin to advance before
  /// returning ResourceExhausted. Only refreshable (lazily computed) GC
  /// floors wait — a fixed watermark can never rise, so those fail fast.
  std::uint64_t version_wait_micros = 200'000;
};

/// Relaxed event counter striped over cache lines: each thread adds to its
/// own stripe, so two threads counting the same event never write the same
/// line; a read sums the stripes. Spelled like std::atomic's load and
/// fetch_add, so readers of StoreStats compile unchanged.
class StripedCounter {
 public:
  static constexpr std::size_t kStripes = 8;

  std::uint64_t load(
      std::memory_order order = std::memory_order_relaxed) const {
    std::uint64_t sum = 0;
    for (const Stripe& stripe : stripes_) sum += stripe.value.load(order);
    return sum;
  }

  void fetch_add(std::uint64_t n,
                 std::memory_order order = std::memory_order_relaxed) {
    stripes_[ThreadStripe()].value.fetch_add(n, order);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  /// Threads take stripes round-robin in order of their first count.
  static std::size_t ThreadStripe() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  Stripe stripes_[kStripes];
};

/// Operation counters of one store (observability).
struct StoreStats {
  StripedCounter reads;
  StripedCounter read_misses;
  StripedCounter read_retries;  ///< seqlock interference
  StripedCounter installs;
  StripedCounter deletes;
  StripedCounter scans;
  StripedCounter gc_reclaimed;
  /// Version-array growth events (a key outgrew its slot array under a
  /// lagging reader pin).
  StripedCounter slot_growths;
  /// Installs that had to wait for the GC floor to advance (hot key at
  /// mvcc_slots_max with every version pinned).
  StripedCounter version_wait_stalls;
  /// Batched validate-and-lock passes (LockForCommitBatch calls).
  StripedCounter batch_validates;
};

/// One transactional state table (untyped: byte-string keys/values).
class VersionedStore {
 public:
  VersionedStore(StateId id, std::string name,
                 std::unique_ptr<TableBackend> backend,
                 const StoreOptions& options);
  ~VersionedStore();

  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  StateId id() const { return id_; }
  const std::string& name() const { return name_; }
  TableBackend* backend() { return backend_.get(); }
  const StoreOptions& options() const { return options_; }

  // ---------------------------------------------------------- read path ---

  /// Snapshot read: newest version with cts <= read_ts < dts.
  Status ReadCommitted(Timestamp read_ts, std::string_view key,
                       std::string* value) const;

  /// Newest committed modification of `key`, deletes included (the
  /// First-Committer-Wins comparison point).
  Timestamp LatestModification(std::string_view key) const;

  /// Snapshot scan over all keys; callback(key, value); stable w.r.t.
  /// concurrent commits thanks to version visibility. The callback runs
  /// with no latch and no epoch pinned (a long callback never stalls
  /// reclamation, and writing back into this store — including creating new
  /// keys — is safe). Keys created after the per-shard pointer snapshot was
  /// taken may or may not be visited by this scan.
  Status ScanCommitted(
      Timestamp read_ts,
      const std::function<bool(std::string_view, std::string_view)>& callback)
      const;

  /// Ordered snapshot scan over [lo, hi) — empty `hi` means "to the end".
  /// Visits keys in byte-wise order at one snapshot, walking the store's
  /// ordered key index (maintained at entry-creation time, so range reads
  /// work regardless of the backend's own ordering). Same reader discipline
  /// as ScanCommitted: latch-free traversal, the epoch pinned only around
  /// each seqlock version probe, the callback invoked with no latch and no
  /// epoch held, and zero heap allocations once the reusable value buffer
  /// has warmed up. Keys created concurrently with the scan may or may not
  /// be visited (their versions are invisible at `read_ts` regardless).
  Status ScanRangeCommitted(
      Timestamp read_ts, std::string_view lo, std::string_view hi,
      const std::function<bool(std::string_view, std::string_view)>& callback)
      const;

  // -------------------------------------------------------- commit path ---

  /// Opaque stable handle to one key's shard entry. Entries are append-only
  /// and never freed before the store dies (the read-path guarantee "an
  /// Entry* once obtained stays valid"), so a handle resolved during
  /// validation stays usable through apply and release — the commit path
  /// probes the bucket table (and pins an epoch) ONCE per key instead of
  /// once per phase.
  using EntryHandle = void*;

  /// Tries to own `key` for committing (First-Committer-Wins guard under
  /// multiple writers). Returns Conflict if another transaction is
  /// committing the key right now. On success (including re-entrant) the
  /// optional `handle` receives the key's entry for the later phases.
  Status LockForCommit(std::string_view key, TxnId txn,
                       EntryHandle* handle = nullptr);
  void UnlockCommit(std::string_view key, TxnId txn);
  void UnlockCommit(EntryHandle handle, TxnId txn);

  /// One key of a batched validate-and-lock pass. `hash` must be
  /// HashKey(key) — write sets already cache exactly that hash, so the
  /// batch path never re-hashes. `handle` receives the resolved entry.
  struct CommitLockRequest {
    std::string_view key;
    std::size_t hash = 0;
    EntryHandle handle = nullptr;
  };

  /// Batch-amortized commit validation: resolves, creates (where missing)
  /// and commit-locks every key of a write-set batch in one pass —
  /// ONE epoch pin for all probes and one shard-latch acquisition per
  /// DISTINCT SHARD (misses sorted by shard, probed in runs) instead of a
  /// pin + probe + possible latch round-trip per key.
  ///
  /// `txn` becomes the commit owner; a key whose latest committed
  /// modification is newer than `newer_than` fails First-Committer-Wins.
  /// Locks are claimed in request (write-set) order, so the observable
  /// lock/conflict sequence is identical to calling LockForCommit per key:
  /// on a Conflict from the lock CAS, requests [0, *locked_count) hold
  /// commit locks and the failing key does not; on a first-committer-wins
  /// Conflict the failing key IS locked (and counted), exactly like the
  /// per-key path, so release logic is shared. Entries created for keys
  /// after a conflict point carry no versions and are semantically
  /// invisible.
  Status LockForCommitBatch(CommitLockRequest* requests, std::size_t count,
                            TxnId txn, Timestamp newer_than,
                            std::size_t* locked_count);

  /// Handle-based First-Committer-Wins comparison point (no probe, no
  /// epoch pin — the handle already is the entry).
  Timestamp LatestModification(EntryHandle handle) const;

  /// Prefetch hint for an upcoming handle-based ApplyCommitted: starts the
  /// version-array miss early so an apply loop overlaps it with the
  /// installs of the keys before it.
  void PrefetchForApply(EntryHandle handle) const {
    static_cast<const Entry*>(handle)->object.PrefetchVersions();
  }

  /// Installs one committed write (value or tombstone) at `commit_ts` in
  /// memory; the commit's log record is its durability. The GC watermark
  /// is lazy: `floor` is only resolved when the key's version array is
  /// actually full (see MvccObject::Install).
  Status ApplyCommitted(std::string_view key, std::string_view value,
                        bool is_delete, Timestamp commit_ts, GcFloor& floor);

  /// Handle-based install: same semantics, minus the bucket-table probe
  /// (the validate phase already resolved the entry).
  Status ApplyCommitted(EntryHandle handle, std::string_view value,
                        bool is_delete, Timestamp commit_ts, GcFloor& floor);

  /// Eager-watermark convenience (tests, benchmarks, maintenance).
  Status ApplyCommitted(std::string_view key, std::string_view value,
                        bool is_delete, Timestamp commit_ts,
                        Timestamp oldest_active) {
    GcFloor floor(oldest_active);
    return ApplyCommitted(key, value, is_delete, commit_ts, floor);
  }

  /// Log replay (recovery, follower apply): installs like ApplyCommitted,
  /// unless the key already holds a modification at or after `commit_ts` —
  /// a checkpoint image or an earlier replay of the same record put it
  /// there. Replay is therefore idempotent and never installs an older cts
  /// on top of a newer one.
  Status ReplayCommitted(std::string_view key, std::string_view value,
                         bool is_delete, Timestamp commit_ts,
                         Timestamp oldest_active);

  /// Generation-tagged cache for the lazily computed per-store GC floor
  /// (see TransactionManager::GlobalCommit): a watermark computed through
  /// the publish-floor/re-scan handshake stays safe forever, so reading a
  /// cached value is always sound; the generation (the StateContext's
  /// transaction-table generation) merely bounds its staleness.
  bool TryGetCachedGcFloor(std::uint64_t generation, Timestamp* floor) const {
    if (gc_floor_generation_.load(std::memory_order_acquire) != generation) {
      return false;
    }
    *floor = gc_floor_cache_.load(std::memory_order_acquire);
    return true;
  }
  void CacheGcFloor(std::uint64_t generation, Timestamp floor) {
    // Value before generation: a reader pairing the new generation with the
    // previous value still holds a valid (handshaked) watermark.
    gc_floor_cache_.store(floor, std::memory_order_release);
    gc_floor_generation_.store(generation, std::memory_order_release);
  }

  /// Runs GC over every key (normally GC is per-key on demand; this is for
  /// tests/benchmarks and idle maintenance).
  std::uint64_t GarbageCollectAll(Timestamp oldest_active);

  // ----------------------------------------------------------- recovery ---

  /// Checkpoint step: writes the image of every key modified since its
  /// last image into the backend — only versions at or below `ceiling`,
  /// the checkpoint cut (see MvccObject::EncodeTo). Writes are unsynced:
  /// the checkpoint's backend Flush() makes them durable, before the cut
  /// record that relies on them. The commit path never writes the backend.
  Status WriteCheckpointImages(Timestamp ceiling);

  /// Loads all MVCC objects from the backend (restart).
  Status LoadFromBackend();

  /// Drops versions with cts > max_cts (their group commit never finished)
  /// — §4.3/recovery rule. Returns the number of purged versions.
  std::uint64_t PurgeVersionsAfter(Timestamp max_cts);

  /// Recovery purge with exact commit knowledge: drops versions whose cts
  /// is beyond `covered_cts` (the checkpoint cut) and not accepted by
  /// `is_committed` (the replayed commit-record set). A lone watermark is
  /// not enough: a commit aborted at the durability point can hold a cts
  /// below a later commit that did log, and its partially-applied versions
  /// must not resurrect. Returns the number of purged versions.
  std::uint64_t PurgeUncommittedVersions(
      Timestamp covered_cts,
      const std::function<bool(Timestamp)>& is_committed);

  /// Targeted undo for a FAILED commit: drops `key`'s versions with
  /// cts > max_cts and re-opens the predecessor the failed install
  /// terminated. Unlike the store-wide PurgeVersionsAfter, this touches
  /// only the caller's own key — concurrent committers' (possibly already
  /// published) versions on other keys are untouched. The caller must
  /// still own the key's commit path (FCW commit lock / exclusive write
  /// lock / the BOCC global commit section), so no other transaction can
  /// have installed a version of this key above max_cts.
  std::uint64_t PurgeKeyVersionsAfter(std::string_view key,
                                      Timestamp max_cts);

  /// Non-transactional bulk load used for benchmark preloading: installs a
  /// version visible to every transaction (cts = kInitialTs) and writes its
  /// image to the backend directly (unsynced) — no log record covers it.
  Status BulkLoad(std::string_view key, std::string_view value);

  // -------------------------------------------------------- diagnostics ---

  std::uint64_t KeyCount() const;
#ifdef STREAMSI_READ_DEBUG
  /// Diagnostic-only: latched dump of a key's version array.
  std::string DebugDump(std::string_view key) const;
#endif
  /// Largest committed timestamp held across all keys — version creations
  /// and deletions alike (recovery's clock fast-forward).
  Timestamp MaxCommittedCts() const;
  const StoreStats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kShards = 256;          // power of two
  static constexpr std::size_t kInitialBuckets = 16;   // power of two
  static constexpr int kOptimisticRetries = 64;

  struct Entry {
    Entry(std::string key_arg, std::size_t hash_arg, int capacity)
        : key(std::move(key_arg)), hash(hash_arg), object(capacity) {}
    Entry(std::string key_arg, std::size_t hash_arg, MvccObject&& recovered)
        : key(std::move(key_arg)),
          hash(hash_arg),
          object(std::move(recovered)),
          latest_modification(object.LatestModification()),
          checkpointed_ts(latest_modification.load()) {}

    /// Key bytes live inside the entry: the bucket table stores only Entry
    /// pointers and lookups compare against this string in place.
    const std::string key;
    const std::size_t hash;
    mutable RwLatch latch;
    MvccObject object;
    /// First-Committer-Wins watermark: timestamp of the newest committed
    /// modification of this key (install or delete, including no-op
    /// deletes). Kept outside the version array because garbage collection
    /// may reclaim the version that carried the evidence.
    std::atomic<Timestamp> latest_modification{kInitialTs};
    /// First-committer-wins commit ownership (0 = free).
    std::atomic<TxnId> commit_owner{0};
    /// Checkpoint dirty mark: the latest modification the backend image
    /// reflects (capped at that image's ceiling). The key needs a new image
    /// iff latest_modification differs. Written by checkpoints (serialized)
    /// and entry construction only.
    std::atomic<Timestamp> checkpointed_ts{kInitialTs};
  };

  /// Open-addressed (linear probing) table of atomic Entry pointers.
  /// Published via Shard::table with release/acquire; immutable once
  /// superseded (readers drain via epochs before it is freed). Load factor
  /// stays <= 3/4, so probes for absent keys always hit an empty bucket.
  struct BucketTable {
    explicit BucketTable(std::size_t capacity_arg)
        : capacity(capacity_arg),
          mask(capacity_arg - 1),
          buckets(new std::atomic<Entry*>[capacity_arg]) {
      for (std::size_t i = 0; i < capacity; ++i) {
        buckets[i].store(nullptr, std::memory_order_relaxed);
      }
    }
    const std::size_t capacity;
    const std::size_t mask;
    std::unique_ptr<std::atomic<Entry*>[]> buckets;
  };

  struct Shard {
    Shard() : table(new BucketTable(kInitialBuckets)) {}
    ~Shard() { delete table.load(std::memory_order_acquire); }
    /// Writers (insert/growth) exclusive; maintenance iteration shared.
    /// Point readers take it only as the seqlock fallback — never on the
    /// optimistic path.
    mutable RwLatch latch;
    std::atomic<BucketTable*> table;
    /// Owns the live entries; append-only under the shard latch. Entries
    /// are never destroyed before the store, so Entry* handles remain
    /// valid. Maintenance (scan, GC, purge, MaxCommittedCts) iterates this
    /// vector, so it must contain exactly the reachable entries.
    std::vector<std::unique_ptr<Entry>> entries;
    /// Entries superseded by LoadFromBackend on a warm store: unreachable
    /// from the bucket table and skipped by maintenance, but kept alive for
    /// stale Entry* handles.
    std::vector<std::unique_ptr<Entry>> retired_entries;
    std::size_t size = 0;  // occupied buckets, under latch
  };

  /// Ordered key index: an insert-only concurrent skiplist of Entry
  /// pointers spanning all shards, maintained at entry-creation time (the
  /// creator already holds its shard latch exclusively; creations in
  /// DIFFERENT shards insert concurrently, which the bottom-level CAS
  /// handles). Three invariants make range readers latch-free AND
  /// epoch-free for the traversal itself:
  ///   * nodes are never unlinked or freed before the store dies (deleted
  ///     keys stay as index nodes whose versions are simply invisible),
  ///   * a node's key bytes live in its Entry, which is likewise immortal,
  ///   * LoadFromBackend's warm-reload entry swap REPOINTS the node's
  ///     atomic Entry* (same key) instead of inserting a duplicate, so a
  ///     stale node can never resurrect superseded versions.
  /// The epoch is still pinned around each VERSION probe (MvccObject slot
  /// arrays are epoch-reclaimed on growth) — just never across user
  /// callbacks.
  class OrderedIndex {
   public:
    static constexpr int kMaxHeight = 16;

    struct Node {
      std::atomic<Entry*> entry{nullptr};  // repointable; never null once
                                           // published (head: stays null)
      int height = 1;
      std::atomic<Node*> next[1];  // variable-length trailing array

      std::string_view key() const {
        return entry.load(std::memory_order_acquire)->key;
      }
      Node* Next(int level) const {
        return next[level].load(std::memory_order_acquire);
      }
      void SetNext(int level, Node* n) {
        next[level].store(n, std::memory_order_release);
      }
      bool CasNext(int level, Node* expected, Node* n) {
        return next[level].compare_exchange_strong(expected, n,
                                                   std::memory_order_acq_rel);
      }
    };

    OrderedIndex();
    ~OrderedIndex();
    OrderedIndex(const OrderedIndex&) = delete;
    OrderedIndex& operator=(const OrderedIndex&) = delete;

    /// Inserts a node for `entry->key`, or repoints the existing node to
    /// `entry` when the key is already indexed (warm reload swap).
    void InsertOrRepoint(Entry* entry);

    /// First node with key >= `lo` (nullptr when past the end).
    Node* Seek(std::string_view lo) const {
      return FindGreaterOrEqual(lo);
    }

   private:
    static Node* NewNode(Entry* entry, int height);
    int RandomHeight();
    Node* FindGreaterOrEqual(std::string_view key,
                             Node** prev = nullptr) const;

    Node* head_;
    std::atomic<int> max_height_{1};
    SpinLock rng_lock_;
    Xorshift rng_{0x0DDB1A5E5ull};
  };

  static std::size_t HashKey(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }
  /// Shard selection uses the top bits, bucket probing the bottom bits, so
  /// keys of one shard still disperse over its buckets.
  static std::size_t ShardIndex(std::size_t hash) {
    return hash >> (8 * sizeof(std::size_t) - 8);
  }

  /// Latch-free probe. Caller must hold an EpochGuard; the returned Entry*
  /// stays valid for the store's lifetime.
  Entry* FindEntry(std::string_view key, std::size_t hash) const;
  /// Prefetch stages of a batched probe (caller holds an EpochGuard): the
  /// home bucket of `hash`, then — once that line has arrived — the entry
  /// it points to. Hints only; FindEntry stays the authoritative probe.
  void PrefetchBucket(std::size_t hash) const;
  void PrefetchEntry(std::size_t hash) const;
  Entry* GetOrCreateEntry(std::string_view key);
  /// Shared scaffold of every optimistic read: runs `try_fn` (one seqlock
  /// attempt, returning MvccObject::ReadResult) up to kOptimisticRetries
  /// times, then takes the shared per-entry latch and resolves via
  /// `locked_fn` (returning hit=true/miss=false). Never returns kRetry.
  template <typename TryFn, typename LockedFn>
  MvccObject::ReadResult ReadOptimistic(const Entry* entry, TryFn&& try_fn,
                                        LockedFn&& locked_fn) const {
    for (int attempt = 0; attempt < kOptimisticRetries; ++attempt) {
      const MvccObject::ReadResult result = try_fn();
      if (result != MvccObject::ReadResult::kRetry) return result;
      stats_.read_retries.fetch_add(1, std::memory_order_relaxed);
      CpuRelax();
    }
    // Sustained writer interference: the latched path guarantees progress.
    SharedGuard guard(entry->latch);
    return locked_fn() ? MvccObject::ReadResult::kHit
                       : MvccObject::ReadResult::kMiss;
  }
  /// Inserts `entry` into `shard` (exclusive latch held), growing the
  /// bucket table when the load factor would exceed 3/4.
  void InsertEntryLocked(Shard& shard, std::unique_ptr<Entry> entry);
  /// Linear-probes `table` for the bucket holding exactly `entry` (pointer
  /// identity). Returns the bucket index, or table->capacity if absent.
  /// Caller must hold the shard latch (any mode that freezes the table).
  static std::size_t FindBucketOf(const BucketTable* table,
                                  const Entry* entry);
  /// Install with adaptive growth (up to options_.mvcc_slots_max) and
  /// bounded writer backpressure: on ResourceExhausted with a refreshable
  /// floor, waits — entry latch RELEASED, outside any seqlock section — for
  /// the lagging pin to advance, re-resolves the floor, and retries, up to
  /// options_.version_wait_micros total.
  Status InstallWithBackpressure(Entry* entry, std::string_view value,
                                 Timestamp commit_ts, GcFloor& floor);

  StateId id_;
  std::string name_;
  std::unique_ptr<TableBackend> backend_;
  StoreOptions options_;
  std::vector<Shard> shards_;
  OrderedIndex ordered_index_;
  std::atomic<std::uint64_t> key_count_{0};
  /// Lazy GC floor cache (TryGetCachedGcFloor/CacheGcFloor). The sentinel
  /// generation ~0 never matches a real transaction-table generation.
  std::atomic<Timestamp> gc_floor_cache_{kInitialTs};
  std::atomic<std::uint64_t> gc_floor_generation_{~0ull};
  mutable StoreStats stats_;
};

}  // namespace streamsi

#endif  // STREAMSI_TXN_VERSIONED_STORE_H_
