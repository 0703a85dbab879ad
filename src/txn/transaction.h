// Transaction: handle for one transaction instance.
//
// In the data-centric model (§3) a stream query is "a sequence of
// transactions": each BOT punctuation begins one, the enclosed stream
// elements become writes, and COMMIT/ROLLBACK punctuations end it. Ad-hoc
// queries use the same handle through the query-centric API.
//
// A transaction may be driven by several operators of the same topology
// (one per state), so the handle is thread-safe where that matters: write
// sets are per-state and status flags live in the latch-free StateContext.
//
// Memory discipline: everything a transaction accumulates (write sets,
// commit locks, snapshot cache, ...) lives in a TxnScratch that is POOLED
// PER TRANSACTION SLOT by the TransactionManager. A transaction slot is
// exclusively owned from BeginTransaction to EndTransaction, so the scratch
// needs no cross-transaction synchronization; at steady state every buffer
// has reached its high-water mark and Put/Get/commit bookkeeping runs
// without a single heap allocation.

#ifndef STREAMSI_TXN_TRANSACTION_H_
#define STREAMSI_TXN_TRANSACTION_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/latch.h"
#include "txn/state_context.h"
#include "txn/types.h"
#include "txn/write_set.h"

namespace streamsi {

/// Whole-transaction lifecycle (distinct from the per-state TxnStatus flags
/// the consistency protocol uses).
enum class TxnPhase : unsigned char {
  kRunning = 0,
  kCommitted = 1,
  kAborted = 2,
};

/// One lock held by a transaction (S2PL strictness list). The key is owned:
/// read locks are recorded for caller-provided key buffers that may die
/// before release.
struct HeldLock {
  StateId state;
  std::string key;
  bool exclusive;
};

/// One SI commit lock (First-Committer-Wins ownership). The key is a VIEW
/// into the write set that recorded it — valid until the scratch resets at
/// Finish, which happens strictly after ReleaseState unlocked it.
struct CommitLockRef {
  StateId state;
  std::string_view key;
  /// Store entry resolved when the lock was taken (opaque
  /// VersionedStore::EntryHandle; stable for the store's lifetime) — the
  /// release path unlocks through it without re-probing the bucket table.
  void* entry = nullptr;
};

/// Pooled per-slot transaction guts. All vectors keep their capacity and
/// all write sets keep their arenas across Reset(), so reuse is free.
struct TxnScratch {
  struct NamedWriteSet {
    StateId state = kInvalidStateId;
    std::unique_ptr<WriteSet> set;
  };

  /// The first `active_sets` entries are live for the current transaction;
  /// the tail is the pool of already-allocated write sets to retag.
  std::vector<NamedWriteSet> sets;
  std::size_t active_sets = 0;

  std::unordered_set<std::string> read_set;  ///< BOCC backward validation
  std::vector<HeldLock> held_locks;          ///< S2PL
  std::vector<CommitLockRef> commit_locks;   ///< SI First-Committer-Wins
  std::vector<std::pair<StateId, Timestamp>> snapshot_cache;

  void Reset() {
    for (std::size_t i = 0; i < active_sets; ++i) sets[i].set->Reset();
    active_sets = 0;
    read_set.clear();
    held_locks.clear();
    commit_locks.clear();
    snapshot_cache.clear();
  }
};

class Transaction {
 public:
  /// Created via TransactionManager::Begin(); takes the pre-acquired slot
  /// and the slot's pooled scratch.
  Transaction(StateContext* context, int slot, TxnId id, TxnScratch* scratch)
      : context_(context), slot_(slot), id_(id), scratch_(scratch) {}

  ~Transaction() {
    // Slot release is the TransactionManager's job (it knows about protocol
    // resources); assert in debug that it happened.
  }

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  int slot() const { return slot_; }
  StateContext* context() { return context_; }

  TxnPhase phase() const { return phase_.load(std::memory_order_acquire); }
  void set_phase(TxnPhase phase) {
    phase_.store(phase, std::memory_order_release);
  }
  bool running() const { return phase() == TxnPhase::kRunning; }

  /// Read visibility (§3). Choose before the first read; switching later
  /// only affects subsequent reads.
  IsolationLevel isolation() const {
    return isolation_.load(std::memory_order_acquire);
  }
  void set_isolation(IsolationLevel level) {
    isolation_.store(level, std::memory_order_release);
  }

  /// Uncommitted write set for `state` (created on first touch, reusing a
  /// pooled one when available); registers the state access in the context.
  WriteSet& MutableWriteSet(StateId state) {
    std::lock_guard<SpinLock> guard(lock_);
    for (std::size_t i = 0; i < scratch_->active_sets; ++i) {
      if (scratch_->sets[i].state == state) return *scratch_->sets[i].set;
    }
    context_->RegisterStateAccess(slot_, state);
    if (scratch_->active_sets == scratch_->sets.size()) {
      scratch_->sets.push_back(
          TxnScratch::NamedWriteSet{state, std::make_unique<WriteSet>()});
    } else {
      // Retag a pooled (already Reset) write set for this state.
      scratch_->sets[scratch_->active_sets].state = state;
    }
    return *scratch_->sets[scratch_->active_sets++].set;
  }

  /// Read-only view (nullptr if the state was never written).
  const WriteSet* FindWriteSet(StateId state) const {
    std::lock_guard<SpinLock> guard(lock_);
    for (std::size_t i = 0; i < scratch_->active_sets; ++i) {
      if (scratch_->sets[i].state == state) return scratch_->sets[i].set.get();
    }
    return nullptr;
  }

  /// Visits every state with a non-empty write set (allocation-free; the
  /// commit path gathers them into stack storage).
  template <typename Fn>
  void ForEachWrittenState(Fn&& fn) const {
    std::lock_guard<SpinLock> guard(lock_);
    for (std::size_t i = 0; i < scratch_->active_sets; ++i) {
      if (!scratch_->sets[i].set->empty()) fn(scratch_->sets[i].state);
    }
  }

  /// States with a non-empty write set (allocating convenience; the commit
  /// path uses ForEachWrittenState instead).
  std::vector<StateId> WrittenStates() const {
    std::vector<StateId> result;
    ForEachWrittenState([&](StateId state) { result.push_back(state); });
    return result;
  }

  /// Clears all write sets (abort path). Keys recorded as commit-lock views
  /// become invalid — the manager releases locks before clearing.
  void ClearWriteSets() {
    std::lock_guard<SpinLock> guard(lock_);
    for (std::size_t i = 0; i < scratch_->active_sets; ++i) {
      scratch_->sets[i].set->Reset();
    }
  }

  // ------------------------------------------------ protocol bookkeeping ---

  /// BOCC read-set tracking: keys are namespaced "<state>/<key>".
  void RecordRead(StateId state, std::string_view key) {
    std::lock_guard<SpinLock> guard(lock_);
    scratch_->read_set.insert(NamespacedKey(state, key));
  }

  const std::unordered_set<std::string>& read_set() const {
    return scratch_->read_set;
  }

  void RecordLock(StateId state, std::string_view key, bool exclusive) {
    std::lock_guard<SpinLock> guard(lock_);
    scratch_->held_locks.push_back(
        HeldLock{state, std::string(key), exclusive});
  }

  std::vector<HeldLock> TakeHeldLocks() {
    std::lock_guard<SpinLock> guard(lock_);
    std::vector<HeldLock> taken;
    taken.swap(scratch_->held_locks);
    return taken;
  }

  /// SI commit locks (First-Committer-Wins ownership) to release after the
  /// group commit finished. `key` must point into this transaction's write
  /// set (stable until Finish).
  void RecordCommitLock(StateId state, std::string_view key,
                        void* entry = nullptr) {
    std::lock_guard<SpinLock> guard(lock_);
    scratch_->commit_locks.push_back(CommitLockRef{state, key, entry});
  }

  /// Batch variant for amortized validation: records `count` locks under
  /// ONE lock acquisition. `get(i)` must return a CommitLockRef-shaped
  /// {key, entry} pair for index i (keys pointing into the write set).
  template <typename Fn>
  void RecordCommitLocks(StateId state, std::size_t count, Fn&& get) {
    if (count == 0) return;
    std::lock_guard<SpinLock> guard(lock_);
    auto& locks = scratch_->commit_locks;
    locks.reserve(locks.size() + count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto [key, entry] = get(i);
      locks.push_back(CommitLockRef{state, key, entry});
    }
  }

  /// Releases (and removes) the commit locks recorded for `state`, invoking
  /// `unlock(lock)` for each CommitLockRef. In-place and allocation-free.
  template <typename Fn>
  void ReleaseCommitLocks(StateId state, Fn&& unlock) {
    std::lock_guard<SpinLock> guard(lock_);
    auto& locks = scratch_->commit_locks;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < locks.size(); ++i) {
      if (locks[i].state == state) {
        unlock(locks[i]);
      } else {
        locks[keep++] = locks[i];
      }
    }
    locks.resize(keep);
  }

  /// Per-state snapshot cache for the read path: protocols cache the pinned
  /// snapshot here instead of re-deriving it from the groups on every read.
  std::optional<Timestamp> CachedSnapshot(StateId state) const {
    std::lock_guard<SpinLock> guard(lock_);
    for (const auto& [sid, ts] : scratch_->snapshot_cache) {
      if (sid == state) return ts;
    }
    return std::nullopt;
  }

  void CacheSnapshot(StateId state, Timestamp ts) {
    std::lock_guard<SpinLock> guard(lock_);
    for (const auto& [sid, cached] : scratch_->snapshot_cache) {
      (void)cached;
      if (sid == state) return;  // first pin wins
    }
    scratch_->snapshot_cache.emplace_back(state, ts);
  }

  /// Forgets every cached snapshot: a read-committed read raised the pins
  /// past them, so they are no longer protected from the collector.
  void DropCachedSnapshots() {
    std::lock_guard<SpinLock> guard(lock_);
    scratch_->snapshot_cache.clear();
  }

  /// Smallest cached snapshot (kInfinityTs when none): every read this
  /// transaction made through a cached snapshot was at or above it.
  Timestamp OldestCachedSnapshot() const {
    std::lock_guard<SpinLock> guard(lock_);
    Timestamp oldest = kInfinityTs;
    for (const auto& [sid, ts] : scratch_->snapshot_cache) {
      (void)sid;
      oldest = std::min(oldest, ts);
    }
    return oldest;
  }

  /// Read-committed scans running on this transaction. A read issued from
  /// a scan's callback keeps the scan's cut: raising the pins under the
  /// scan would let the collector reclaim versions it has yet to visit.
  bool InReadCommittedScan() const { return rc_scans_.load() > 0; }
  void BeginReadCommittedScan() { rc_scans_.fetch_add(1); }
  void EndReadCommittedScan() { rc_scans_.fetch_sub(1); }

  /// §4.3: "The operator that sets the last status flag to Commit becomes
  /// the coordinator and is responsible for the global commit." Exactly one
  /// caller wins this claim.
  bool TryClaimCoordinator() {
    bool expected = false;
    return coordinator_claimed_.compare_exchange_strong(
        expected, true, std::memory_order_acq_rel);
  }

  /// Resets the pooled scratch for the slot's next occupant. Called by the
  /// manager at Finish, strictly after every protocol release ran.
  void ResetScratch() {
    std::lock_guard<SpinLock> guard(lock_);
    scratch_->Reset();
  }

  static std::string NamespacedKey(StateId state, std::string_view key) {
    std::string out = std::to_string(state);
    out.push_back('/');
    out.append(key.data(), key.size());
    return out;
  }

 private:
  StateContext* context_;
  int slot_;
  TxnId id_;
  std::atomic<TxnPhase> phase_{TxnPhase::kRunning};
  std::atomic<IsolationLevel> isolation_{IsolationLevel::kSnapshot};
  std::atomic<bool> coordinator_claimed_{false};
  std::atomic<int> rc_scans_{0};

  mutable SpinLock lock_;
  TxnScratch* scratch_;
};

}  // namespace streamsi

#endif  // STREAMSI_TXN_TRANSACTION_H_
