// StateContext: the global, latch-free runtime context of Figure 3.
//
// It tracks
//   * registered states (id, name, location),
//   * topology groups — the sets of states a stream query updates
//     atomically — with the last globally committed transaction per group
//     (LastCTS),
//   * the active-transaction table: a fixed number of slots managed by a
//     64-bit CAS bit vector; each slot records the accessed states with
//     their per-state status (Active/Commit/Abort) and the pinned ReadCTS
//     per group,
//   * the global logical clock, and
//   * OldestActiveVersion for on-demand garbage collection.

#ifndef STREAMSI_TXN_STATE_CONTEXT_H_
#define STREAMSI_TXN_STATE_CONTEXT_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/latch.h"
#include "common/slot_mask.h"
#include "common/status.h"
#include "txn/types.h"

namespace streamsi {

/// Metadata about one registered state.
struct StateInfo {
  StateId id = kInvalidStateId;
  std::string name;
  std::string location;  ///< filesystem path for persistent states, else ""
};

/// Metadata about one topology group (states committed together).
struct GroupInfo {
  GroupId id = kInvalidGroupId;
  std::vector<StateId> states;
};

class StateContext {
 public:
  static constexpr int kMaxActiveTxns = AtomicSlotMask::kMaxSlots;

  StateContext() = default;
  StateContext(const StateContext&) = delete;
  StateContext& operator=(const StateContext&) = delete;

  // ------------------------------------------------------------- states ---

  /// Registers a state; returns its id.
  StateId RegisterState(std::string name, std::string location = "");
  const StateInfo* GetState(StateId id) const;
  std::size_t StateCount() const;

  // ------------------------------------------------------------- groups ---

  /// Registers a topology group over `states`; returns its id. Each state
  /// may belong to multiple groups (shared states across queries).
  GroupId RegisterGroup(std::vector<StateId> states);
  const GroupInfo* GetGroup(GroupId id) const;
  std::size_t GroupCount() const;
  /// Groups that contain `state`.
  std::vector<GroupId> GroupsOf(StateId state) const;

  /// Last globally committed transaction of the group (§4.3: set at the
  /// *end* of a group commit; what readers pin).
  Timestamp LastCts(GroupId group) const;
  /// Atomically publishes one commit's LastCTS to its groups (monotonic CAS
  /// max per group): the advances run inside the publication seqlock so a
  /// reader's pin sweep never observes a half-published commit (the §4.3
  /// overlap rule is only sound over pins taken from one consistent cut).
  /// This is the ONLY way to advance LastCTS — an unsynchronized per-group
  /// advance would bypass the seqlock and reintroduce torn cuts.
  void PublishCommit(const GroupId* groups, std::size_t count, Timestamp cts);
  void PublishCommit(const std::vector<GroupId>& groups, Timestamp cts) {
    PublishCommit(groups.data(), groups.size(), cts);
  }
  /// Assigns the transaction's commit timestamp and registers it as *in
  /// flight* in one atomic step (the commit path's ONLY way to draw a
  /// commit timestamp). Publications may then complete in any order —
  /// instead of ordering publishers, readers clamp their snapshot pins to
  /// SafePublicationTs(): commits with a smaller timestamp that are still
  /// mid-apply can never fall inside a freshly pinned snapshot, even when
  /// a larger-cts commit has already advanced LastCTS. (Without the clamp,
  /// a reader pinning that larger LastCTS observes the in-flight commit's
  /// already-installed versions without its missing ones — a torn batch,
  /// reproduced by the PR 3 partitioned stress where concurrent lanes
  /// commit into one shared group.)
  Timestamp AssignCommitTimestamp(int slot);
  /// Retires the slot's in-flight commit timestamp: after PublishCommit
  /// returned (publication fully visible), or on a failed commit AFTER its
  /// installed versions are purged — the safe timestamp rises past the
  /// retired cts, so any trace of the commit must be gone first.
  void RetireCommitTimestamp(int slot);
  /// Largest timestamp snapshots may safely pin: every commit with
  /// cts <= SafePublicationTs() is fully applied and published (or purged).
  /// kInfinityTs when no commit is in flight. Readers must take the scan
  /// AFTER reading the LastCTS values it guards (a published LastCTS that
  /// could expose an in-flight smaller cts is ordered after that cts's
  /// registration, so a later scan cannot miss it).
  Timestamp SafePublicationTs() const;
  /// Appends every group containing `state` to `out` (deduplicated against
  /// what `out` already holds). `Vec` is any push_back_unique container —
  /// the commit path passes a stack SmallVec so publication gathers its
  /// group set without heap allocation.
  template <typename Vec>
  void CollectGroupsOf(StateId state, Vec* out) const {
    SharedGuard guard(registry_latch_);
    for (const auto& group : groups_) {
      if (std::find(group->info.states.begin(), group->info.states.end(),
                    state) != group->info.states.end()) {
        out->push_back_unique(group->info.id);
      }
    }
  }
  /// Recovery: forces LastCTS (no monotonicity check).
  void SetLastCts(GroupId group, Timestamp cts);

  /// One publication-seqlock-consistent cut of EVERY group's LastCTS: like
  /// SweepAndPin's cut, it can never straddle a mid-flight multi-group
  /// publication. Unlike reader pins it is NOT clamped to
  /// SafePublicationTs() (the log shipper's watermark).
  void SnapshotLastCts(std::vector<std::pair<GroupId, Timestamp>>* out) const;

  /// The checkpoint cut: SnapshotLastCts() clamped below every commit still
  /// in flight (SafePublicationTs(), scanned AFTER the snapshot, as for
  /// reader pins). Database::Checkpoint drains in-flight commits first, but
  /// commits registering after the drain can publish out of timestamp
  /// order: an unclamped cut would cover an earlier commit that is still
  /// applying, and if that commit then failed between its stores, recovery
  /// would keep its partial versions as committed.
  void SnapshotCheckpointCut(
      std::vector<std::pair<GroupId, Timestamp>>* out) const;

  /// Blocks until every commit in flight at CALL TIME has retired its
  /// commit timestamp (published, or purged after a failed commit). Commits
  /// registering later are NOT awaited — the checkpoint only needs the set
  /// that may have recorded into pre-rotation log segments. Timestamps are
  /// never reused (monotonic clock), so observing the slot change is
  /// exactly "that commit retired".
  void DrainInflightCommits() const;

  // -------------------------------------------------------------- clock ---

  LogicalClock& clock() { return clock_; }
  const LogicalClock& clock() const { return clock_; }

  // ------------------------------------------- active-transaction table ---

  /// Claims a transaction slot and assigns a fresh TxnID (BOT timestamp).
  /// ResourceExhausted if kMaxActiveTxns transactions are running.
  Result<int> BeginTransaction(TxnId* txn_id);

  /// Releases the slot at end of transaction.
  void EndTransaction(int slot);

  /// Records that the transaction accesses `state` (status = Active) if not
  /// already recorded.
  void RegisterStateAccess(int slot, StateId state);

  /// Sets the per-state status flag (consistency protocol, §4.3).
  void SetStateStatus(int slot, StateId state, TxnStatus status);

  /// Status of `state` within this transaction (kActive if unknown).
  TxnStatus GetStateStatus(int slot, StateId state) const;

  /// All states the transaction has registered, with status.
  std::vector<std::pair<StateId, TxnStatus>> StatesOf(int slot) const;

  /// Allocation-free variant: copies the registered states into `out` (any
  /// push_back container — the commit path passes a stack SmallVec).
  template <typename Vec>
  void CopyStatesOf(int slot, Vec* out) const {
    const TxnSlot& s = slots_[static_cast<std::size_t>(slot)];
    std::lock_guard<SpinLock> guard(s.lock);
    for (const auto& entry : s.states) out->push_back(entry);
  }

  /// Monotonic generation of the active-transaction table: bumped on every
  /// BeginTransaction and EndTransaction. Consumers (the lazy GC floor
  /// cache) may reuse a watermark computed at an unchanged generation —
  /// the pin set can only have shrunk-equivalently since. (Any watermark
  /// produced by the publish-floor/re-scan handshake stays *safe* forever;
  /// the generation merely bounds how stale — i.e. how conservative — a
  /// cached floor may get.)
  std::uint64_t TxnTableGeneration() const {
    return txn_generation_.load(std::memory_order_acquire);
  }

  /// Blocks until the transaction-table generation differs from `seen`, at
  /// most `micros` microseconds; returns the generation at wake-up. The
  /// writer-backpressure path (a committer stalled on a version array whose
  /// every version is pinned) sleeps here between GC-floor re-resolutions:
  /// the floor can only rise when a transaction ends (or begins), and both
  /// bump the generation — so this wakes exactly when recomputing the floor
  /// might help. Purely a latency hint: a missed wake-up costs at most the
  /// timeout, never correctness.
  std::uint64_t WaitForTxnTableChange(std::uint64_t seen,
                                      std::uint64_t micros);

  /// True iff every registered state of `group` that this transaction
  /// accessed has status == kCommit... (§4.3: "The modifications are not
  /// persisted until all states registered for this transaction are ready
  /// for commit.")
  bool AllRegisteredStatesReady(int slot) const;
  /// True iff any state of this transaction is flagged kAbort.
  bool AnyStateAborted(int slot) const;

  /// Pins (first call) or returns (later calls) the transaction's ReadCTS
  /// for `group` (§4.2/§4.3: "the read version is noted within the context
  /// and is only set at the first read per topology").
  Timestamp PinReadCts(int slot, GroupId group);
  /// The pinned ReadCTS, or nullopt if the group was never read.
  std::optional<Timestamp> GetReadCts(int slot, GroupId group) const;
  /// Overlap rule (§4.3): effective snapshot for a state = the minimum pin
  /// across all (pinned) groups containing it; unpinned groups get pinned
  /// on first touch.
  Timestamp PinReadCtsForState(int slot, StateId state);
  /// Read committed: raises the transaction's pins to one fresh published,
  /// clamped cut (pinning untouched groups too). Pins only rise, so the
  /// pin/GC-floor handshake still holds — but a read still running at an
  /// older pin loses its protection: never refresh under a running read.
  void RefreshReadCts(int slot);

  /// BOT timestamp of the transaction in `slot`.
  TxnId TxnIdOf(int slot) const;

  /// OldestActiveVersion (§4.1): the smallest snapshot any active *or
  /// future* transaction may still read. Future reads pin a group's
  /// LastCTS, so the floor is min(LastCTS over all groups), lowered further
  /// by the pins active transactions hold; clock.Now() when there are no
  /// groups. Versions whose dts <= this value are safe to reclaim.
  Timestamp OldestActiveVersion() const;

  /// Per-state GC watermark: like OldestActiveVersion, but only snapshots
  /// that can actually see `state` matter — the LastCTS of the groups
  /// containing it and the pins active transactions hold on those groups.
  /// (A never-committing group elsewhere must not pin this state's GC.)
  Timestamp OldestActiveVersionFor(StateId state) const;

  /// Number of currently active transactions.
  int ActiveTransactionCount() const { return active_mask_.Count(); }

 private:
  struct TxnSlot {
    std::atomic<TxnId> txn_id{0};
    mutable SpinLock lock;
    std::vector<std::pair<StateId, TxnStatus>> states;
    std::vector<std::pair<GroupId, Timestamp>> read_cts;
  };

  struct GroupSlot {
    GroupInfo info;
    std::atomic<Timestamp> last_cts{kInitialTs};
    /// Highest GC watermark any collector may already be using for states
    /// of this group. A reader that registered a snapshot pin BELOW this
    /// floor raced an in-flight watermark computation (the collector could
    /// not see the pin) and must re-pin from the current LastCTS; the
    /// publish-floor / re-scan-pins handshake in OldestActiveVersion[For]
    /// and PinReadCts closes that window (the multi-state snapshot
    /// guarantee of §4.3 depends on it).
    std::atomic<Timestamp> gc_floor{kInitialTs};
  };

  /// Smallest snapshot pin any active transaction holds on one of `groups`
  /// (kInfinityTs if none). Used twice by the watermark computations —
  /// before and after publishing the floor.
  Timestamp OldestPinnedCts(const GroupId* groups, std::size_t count,
                            bool any_group) const;
  Timestamp GcFloor(GroupId group) const;
  /// Raises gc_floor (monotonic) on `groups`, or on every group when
  /// any_group is set.
  void PublishGcFloor(const GroupId* groups, std::size_t count,
                      bool any_group, Timestamp floor) const;
  /// First grouped access of a transaction: registers a pin for EVERY
  /// existing group from one seqlock-consistent cut of the LastCTS values,
  /// re-validated against the groups' gc_floor. Taking the whole cut at
  /// once is what makes the §4.3 min() overlap rule sound — pins taken at
  /// different moments (as states are first touched) can straddle
  /// publications and yield different effective snapshots for states that
  /// share only some groups. With `raise`, existing pins are raised to
  /// the cut (RefreshReadCts) instead of kept.
  void SweepAndPin(int slot, bool raise);

  LogicalClock clock_;

  /// Publication seqlock: odd while a commit's LastCTS values are being
  /// advanced across its groups (see PublishCommit / SweepAndPin). Writers
  /// serialize on publish_lock_ — overlapping publishers would otherwise
  /// leave the sequence even mid-publication and break reader validation.
  SpinLock publish_lock_;
  std::atomic<std::uint64_t> publish_seq_{0};

  /// Publication-visibility gate: in-flight commit timestamps by txn slot
  /// (0 = none). Drawn + registered atomically under the mutex (a commit
  /// preempted between draw and registration would be invisible to the
  /// reader-side clamp while larger timestamps publish past it); retired
  /// with one release store. Readers scan lock-free (SafePublicationTs).
  mutable std::mutex publication_gate_mutex_;
  std::array<std::atomic<Timestamp>, kMaxActiveTxns> inflight_commit_ts_{};
  /// Number of non-zero inflight_commit_ts_ entries: lets SafePublicationTs
  /// skip the slot scan in the common no-commit-in-flight case.
  std::atomic<int> inflight_commit_count_{0};

  mutable RwLatch registry_latch_;  // guards states_/groups_ vectors
  std::vector<StateInfo> states_;
  std::vector<std::unique_ptr<GroupSlot>> groups_;

  /// Wakes WaitForTxnTableChange sleepers after a generation bump. The
  /// notify is gated on the waiter count so idle begin/end pairs never
  /// touch the mutex.
  void NotifyGenerationWaiters();

  AtomicSlotMask active_mask_;
  std::array<TxnSlot, kMaxActiveTxns> slots_;
  std::atomic<std::uint64_t> txn_generation_{0};
  /// Generation-change waiters (writer backpressure on full version
  /// arrays); see WaitForTxnTableChange.
  mutable std::mutex generation_mutex_;
  std::condition_variable generation_cv_;
  std::atomic<int> generation_waiters_{0};
};

}  // namespace streamsi

#endif  // STREAMSI_TXN_STATE_CONTEXT_H_
