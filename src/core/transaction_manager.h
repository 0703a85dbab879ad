// TransactionManager: drives transactions through the configured
// concurrency protocol and implements the consistency protocol among
// multiple states (§4.3) — a modified 2-phase commit where the operator
// that sets the last per-state Commit flag becomes the coordinator of the
// global commit, and one Abort flag aborts the transaction globally.

#ifndef STREAMSI_CORE_TRANSACTION_MANAGER_H_
#define STREAMSI_CORE_TRANSACTION_MANAGER_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/small_vec.h"
#include "core/group_commit_log.h"
#include "txn/protocol.h"
#include "txn/state_context.h"
#include "txn/transaction.h"
#include "txn/versioned_store.h"

namespace streamsi {

/// Counters for the benchmark harness and diagnostics.
struct TxnCounters {
  std::atomic<std::uint64_t> begun{0};
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> aborted{0};
  std::atomic<std::uint64_t> conflicts{0};  // FCW / validation / wait-die
};

/// A running transaction, owned by the caller. Destroying an unfinished
/// handle aborts the transaction.
class TransactionHandle;

/// What a commit listener learns about a finished transaction on one state.
/// The changes are exposed as views into the transaction's write set (valid
/// for the duration of the synchronous listener call) — building the
/// notification allocates nothing.
struct CommitInfo {
  TxnId txn_id = 0;
  Timestamp commit_ts = 0;
  /// The state's effective write set, in first-touch order.
  const WriteSet* changes = nullptr;

  /// fn(key, value, is_delete); `value` is empty for deletes.
  template <typename Fn>
  void ForEachChange(Fn&& fn) const {
    if (changes != nullptr) changes->ForEachEffective(fn);
  }
};

/// Observer of committed changes on one state. Invoked synchronously in the
/// committing thread *after* the group's LastCTS advanced, i.e. the changes
/// are visible to new snapshots — this is the kOnCommit trigger policy of
/// TO_STREAM (§3 "Transactional semantics").
using CommitListener = std::function<void(const CommitInfo&)>;

class TransactionManager {
 public:
  using StoreResolver = std::function<VersionedStore*(StateId)>;

  TransactionManager(StateContext* context, ConcurrencyProtocol* protocol,
                     StoreResolver resolver, GroupCommitLog* group_log,
                     bool durable_group_log)
      : context_(context),
        protocol_(protocol),
        resolver_(std::move(resolver)),
        group_log_(group_log),
        durable_group_log_(durable_group_log) {}
  ~TransactionManager();

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// BOT: claims a slot, assigns the transaction timestamp (§4.1).
  Result<std::unique_ptr<TransactionHandle>> Begin();

  // ------------------------------------------------------- data access ---

  Status Read(Transaction& txn, StateId state, std::string_view key,
              std::string* value);
  Status Write(Transaction& txn, StateId state, std::string_view key,
               std::string_view value);
  Status Delete(Transaction& txn, StateId state, std::string_view key);
  Status Scan(Transaction& txn, StateId state,
              const std::function<bool(std::string_view, std::string_view)>&
                  callback);
  /// Ordered range scan over [lo, hi) (empty `hi` = unbounded) at the
  /// transaction's §4.3 snapshot cut; MVCC only (see
  /// ConcurrencyProtocol::ScanRange for why the baselines refuse).
  Status ScanRange(Transaction& txn, StateId state, std::string_view lo,
                   std::string_view hi,
                   const std::function<bool(std::string_view,
                                            std::string_view)>& callback);

  /// Pre-declares that `txn` will access `state` (TO_TABLE operators call
  /// this at BOT so the consistency protocol knows the full state set
  /// before any operator commits its part).
  Status RegisterState(Transaction& txn, StateId state);

  // ---------------------------------------- consistency protocol (§4.3) ---

  /// Operator-level commit: flags `state` as Commit. If that was the last
  /// outstanding flag, the caller becomes the coordinator and performs the
  /// global commit; the returned status then reflects the global outcome
  /// (e.g. Conflict for a First-Committer-Wins abort). A non-coordinator
  /// gets OK and must not touch the transaction again except through
  /// CommitState/AbortState on its own state.
  Status CommitState(Transaction& txn, StateId state);

  /// Operator-level abort: flags `state` as Abort and aborts globally
  /// (§4.3: "a transaction must be aborted globally as soon as Abort has
  /// been flagged for at least one state").
  Status AbortState(Transaction& txn, StateId state);

  /// Query-centric convenience: commits all registered states at once
  /// (single coordinator).
  Status Commit(Transaction& txn);

  /// Aborts the whole transaction.
  Status Abort(Transaction& txn);

  /// Registers a commit observer for `state`; returns a token for
  /// UnregisterCommitListener.
  std::uint64_t RegisterCommitListener(StateId state, CommitListener listener);
  void UnregisterCommitListener(std::uint64_t token);

  // ------------------------------------------------- secondary indexes ---

  /// Derives the secondary key of one base row. Must be deterministic and
  /// must never emit a 0x00 byte (see core/index_key.h).
  using IndexKeyExtractor =
      std::function<std::string(std::string_view key, std::string_view value)>;

  /// Binds index state `index` to base state `base`: every GlobalCommit
  /// that wrote `base` derives the index mutations from its write set and
  /// commits them in the SAME §4.3 global commit, so base and index publish
  /// atomically. Re-binding the same pair replaces the extractor (reopen).
  /// A null extractor registers the binding as PENDING — write commits on
  /// `base` then refuse with Unavailable until the application re-binds a
  /// real extractor (Database::CreateIndex after reopen does this).
  void RegisterIndex(StateId base, StateId index, IndexKeyExtractor extractor);

  const TxnCounters& counters() const { return counters_; }
  StateContext* context() { return context_; }
  ConcurrencyProtocol* protocol() { return protocol_; }

  /// Gate consulted before a write-commit does any work; returning non-OK
  /// rejects the commit with that status (no IO, no conflict counted).
  using CommitAdmission = std::function<Status()>;
  /// Told about IO failures in the commit's apply/durability phases; the
  /// database classifies them into health-state transitions.
  using CommitFailureObserver = std::function<void(const Status&)>;

  /// Installs the database's health hooks (call before serving traffic;
  /// not thread-safe against in-flight commits). Either may be null.
  void SetHealthHooks(CommitAdmission admission,
                      CommitFailureObserver observer) {
    commit_admission_ = std::move(admission);
    commit_failure_observer_ = std::move(observer);
  }

  /// Write-transaction admission probe: the same gate GlobalCommit
  /// consults, exposed so writers (stream batches) can fail fast at BOT
  /// against a read-only database instead of doing a batch of work that
  /// can only be rejected at commit.
  Status AdmitWrites() const {
    return commit_admission_ ? commit_admission_() : Status::OK();
  }

  /// Promotion: installs the (fresh) group-commit log after a follower
  /// becomes writable. Not thread-safe against in-flight commits — the
  /// caller guarantees none exist (an unpromoted follower admits no write
  /// commit, so the commit path is quiescent when this runs).
  void SetGroupLog(GroupCommitLog* group_log, bool durable) {
    group_log_ = group_log;
    durable_group_log_ = durable;
  }

 private:
  friend class TransactionHandle;

  /// Inline capacity for the commit path's stack-resident bookkeeping
  /// (written states, stores, groups). Commits spanning more spill to the
  /// heap but stay correct.
  static constexpr std::size_t kInlineCommitStates = 8;

  Status GlobalCommit(Transaction& txn);
  void GlobalAbort(Transaction& txn);
  /// Commit-time index maintenance: for every written base state with
  /// bound indexes, folds the derived index mutations into the
  /// transaction's write sets. Pre-images are read at the transaction's
  /// snapshot of the base, which First-Committer-Wins then validates.
  Status DeriveIndexMutations(Transaction& txn);
  void ReleaseAll(Transaction& txn, bool committed);
  void Finish(Transaction& txn, bool committed);
  void NotifyCommitListeners(Transaction& txn, Timestamp commit_ts,
                             const StateId* written, std::size_t count);
  /// GcFloor compute hook: generation-cached OldestActiveVersionFor.
  static Timestamp ComputeStoreGcFloor(void* ctx);
  /// GcFloor wait hook (writer backpressure): sleeps until the transaction
  /// table changed — the only event that can raise the floor — or `micros`
  /// elapsed.
  static void WaitForStoreGcFloor(void* ctx, std::uint64_t micros);

  StateContext* context_;
  ConcurrencyProtocol* protocol_;
  StoreResolver resolver_;
  GroupCommitLog* group_log_;
  bool durable_group_log_;
  CommitAdmission commit_admission_;
  CommitFailureObserver commit_failure_observer_;
  TxnCounters counters_;
  /// Per-slot pooled transaction scratch (write sets, lock lists, caches).
  /// A slot is exclusively owned between BeginTransaction/EndTransaction,
  /// so no lock guards the entries; the unique_ptrs are created lazily and
  /// reused for every later transaction in the slot.
  std::array<std::unique_ptr<TxnScratch>, StateContext::kMaxActiveTxns>
      scratch_pool_;

  /// Secondary-index bindings, base state -> its indexes. Registration is
  /// a rare schema-time event; the commit path checks the atomic flag
  /// first and only takes the shared latch when indexes exist at all.
  struct IndexBinding {
    StateId index = kInvalidStateId;
    IndexKeyExtractor extractor;  ///< null = pending re-bind after reopen
  };
  mutable RwLatch indexes_latch_;
  std::unordered_map<StateId, std::vector<IndexBinding>> indexes_;
  std::atomic<bool> has_indexes_{false};

  /// Commit listeners, immutable once published. Dispatch reads the table
  /// inside an EpochGuard and copies only listener references (no heap
  /// allocation for up to kInlineListeners per state); (un)registration
  /// builds a successor under listeners_mutex_, publishes it and retires
  /// the old table through the EpochManager. The references let a
  /// listener run with no epoch pinned — a slow one never stalls
  /// reclamation — and keep it alive if it unregisters itself mid-call.
  struct ListenerTable {
    struct Listener {
      std::uint64_t token = 0;
      std::shared_ptr<const CommitListener> fn;
    };
    std::unordered_map<StateId, std::vector<Listener>> by_state;
  };
  static constexpr std::size_t kInlineListeners = 4;
  std::mutex listeners_mutex_;
  std::uint64_t next_listener_token_ = 1;  ///< under listeners_mutex_
  std::atomic<const ListenerTable*> listeners_{nullptr};
  std::atomic<bool> has_listeners_{false};
};

/// RAII transaction wrapper returned by Begin(); aborts on destruction if
/// still running.
class TransactionHandle {
 public:
  TransactionHandle(TransactionManager* manager, StateContext* context,
                    int slot, TxnId id, TxnScratch* scratch)
      : manager_(manager), txn_(context, slot, id, scratch) {}

  ~TransactionHandle() {
    if (txn_.running()) manager_->Abort(txn_);
  }

  TransactionHandle(const TransactionHandle&) = delete;
  TransactionHandle& operator=(const TransactionHandle&) = delete;

  Transaction& txn() { return txn_; }
  TxnId id() const { return txn_.id(); }

  Status Read(StateId state, std::string_view key, std::string* value) {
    return manager_->Read(txn_, state, key, value);
  }
  Status Write(StateId state, std::string_view key, std::string_view value) {
    return manager_->Write(txn_, state, key, value);
  }
  Status Delete(StateId state, std::string_view key) {
    return manager_->Delete(txn_, state, key);
  }
  Status Scan(StateId state,
              const std::function<bool(std::string_view, std::string_view)>&
                  callback) {
    return manager_->Scan(txn_, state, callback);
  }
  Status ScanRange(StateId state, std::string_view lo, std::string_view hi,
                   const std::function<bool(std::string_view,
                                            std::string_view)>& callback) {
    return manager_->ScanRange(txn_, state, lo, hi, callback);
  }
  Status Commit() { return manager_->Commit(txn_); }
  Status Abort() { return manager_->Abort(txn_); }
  Status CommitState(StateId state) {
    return manager_->CommitState(txn_, state);
  }
  Status AbortState(StateId state) { return manager_->AbortState(txn_, state); }

 private:
  TransactionManager* manager_;
  Transaction txn_;
};

}  // namespace streamsi

#endif  // STREAMSI_CORE_TRANSACTION_MANAGER_H_
