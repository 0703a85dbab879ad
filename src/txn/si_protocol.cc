#include "txn/si_protocol.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/small_vec.h"

namespace streamsi {

namespace {

/// Marks a read-committed scan as running for its lifetime (see ReadTs).
class ReadCommittedScan {
 public:
  explicit ReadCommittedScan(Transaction& txn)
      : txn_(txn.isolation() == IsolationLevel::kReadCommitted ? &txn
                                                               : nullptr) {
    if (txn_ != nullptr) txn_->BeginReadCommittedScan();
  }
  ~ReadCommittedScan() {
    if (txn_ != nullptr) txn_->EndReadCommittedScan();
  }
  ReadCommittedScan(const ReadCommittedScan&) = delete;
  ReadCommittedScan& operator=(const ReadCommittedScan&) = delete;

 private:
  Transaction* txn_;
};

}  // namespace

Timestamp SiProtocol::ReadTs(Transaction& txn, VersionedStore& store) {
  if (txn.isolation() == IsolationLevel::kSnapshot) {
    return SnapshotFor(txn, store);
  }
  // Read committed (§3): each read runs at a fresh published cut, pinned
  // like any snapshot (GC may reclaim what an unpinned cut sees). Cached
  // snapshots fall below the raised pins and go; nothing is cached, so FCW
  // keeps its BOT threshold. A read inside a running scan keeps its cut.
  if (!txn.InReadCommittedScan()) {
    txn.DropCachedSnapshots();
    context_->RefreshReadCts(txn.slot());
  }
  return context_->PinReadCtsForState(txn.slot(), store.id());
}

Status SiProtocol::Read(Transaction& txn, VersionedStore& store,
                        std::string_view key, std::string* value) {
  return ReadWithOverlay(
      txn, store, [&] { return ReadTs(txn, store); }, key, value);
}

Status SiProtocol::Write(Transaction& txn, VersionedStore& store,
                         std::string_view key, std::string_view value) {
  txn.MutableWriteSet(store.id()).Put(key, value);
  return Status::OK();
}

Status SiProtocol::Delete(Transaction& txn, VersionedStore& store,
                          std::string_view key) {
  txn.MutableWriteSet(store.id()).Delete(key);
  return Status::OK();
}

Status SiProtocol::Scan(
    Transaction& txn, VersionedStore& store,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  const Timestamp read_ts = ReadTs(txn, store);
  const ReadCommittedScan running(txn);
  return ScanWithOverlay(txn, store, read_ts, callback);
}

Status SiProtocol::ScanRange(
    Transaction& txn, VersionedStore& store, std::string_view lo,
    std::string_view hi,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  // Snapshot isolation gets range reads phantom-free for free: every key in
  // [lo, hi) is judged against the same pinned ReadCTS, so an insert
  // committed after the pin is invisible no matter when it lands relative
  // to the traversal.
  const Timestamp read_ts = ReadTs(txn, store);
  const ReadCommittedScan running(txn);
  return ScanRangeWithOverlay(txn, store, read_ts, lo, hi, callback);
}

Status SiProtocol::Validate(Transaction& txn, VersionedStore& store) {
  const WriteSet* ws = txn.FindWriteSet(store.id());
  if (ws == nullptr || ws->empty()) return Status::OK();
  // First-Committer-Wins compares against the older of BOT and the snapshot
  // this transaction read the store at. A commit whose timestamp was drawn
  // before BOT can still be unpublished when the snapshot is pinned (the
  // publication clamp keeps it invisible); judged against BOT alone it
  // would pass, and a read-modify-write would overwrite it unseen.
  Timestamp newer_than = txn.id();
  if (const auto snapshot = txn.CachedSnapshot(store.id())) {
    newer_than = std::min(newer_than, *snapshot);
  }
  return batched_validation_ ? ValidateBatched(txn, store, *ws, newer_than)
                             : ValidatePerKey(txn, store, *ws, newer_than);
}

Status SiProtocol::ValidatePerKey(Transaction& txn, VersionedStore& store,
                                  const WriteSet& ws, Timestamp newer_than) {
  for (const auto& entry : ws.entries()) {
    // Commit-time write lock ("In the case of multiple writers, additional
    // write locks are introduced"). The recorded key is a view into the
    // write set — stable until the scratch resets after release. The
    // resolved entry handle is stashed on the write-set entry and on the
    // lock record: the apply and release phases reuse it instead of
    // re-probing the bucket table per key.
    VersionedStore::EntryHandle handle = nullptr;
    STREAMSI_RETURN_NOT_OK(store.LockForCommit(entry.key, txn.id(), &handle));
    entry.commit_hint = handle;
    txn.RecordCommitLock(store.id(), entry.key, handle);
    // First-Committer-Wins: someone committed a modification (install or
    // delete) of this key that our snapshot does not see.
    if (store.LatestModification(handle) > newer_than) {
      return Status::Conflict("first-committer-wins: key '" +
                              std::string(entry.key) +
                              "' has a newer committed modification");
    }
  }
  return Status::OK();
}

Status SiProtocol::ValidateBatched(Transaction& txn, VersionedStore& store,
                                   const WriteSet& ws, Timestamp newer_than) {
  // Batch-amortized Phase 1: validate-and-lock the whole write set in one
  // store pass (one epoch pin for every probe, one shard-latch acquisition
  // per distinct shard for creations, one scratch-lock acquisition for all
  // lock records) instead of a per-key round-trip. LockForCommitBatch
  // claims locks in write-set order, so abort/retry outcomes are identical
  // to ValidatePerKey — including the FCW-failed key holding (and later
  // releasing) its lock.
  const auto& entries = ws.entries();
  SmallVec<VersionedStore::CommitLockRequest, 16> requests;
  for (const auto& entry : entries) {
    requests.push_back(
        VersionedStore::CommitLockRequest{entry.key, entry.hash, nullptr});
  }
  std::size_t locked = 0;
  const Status status =
      store.LockForCommitBatch(requests.begin(), requests.size(), txn.id(),
                               newer_than, &locked);
  // Stash the resolved handles for the apply phase and record every
  // claimed lock for release — both only over the locked prefix.
  for (std::size_t i = 0; i < locked; ++i) {
    entries[i].commit_hint = requests[i].handle;
  }
  txn.RecordCommitLocks(store.id(), locked, [&](std::size_t i) {
    return std::pair<std::string_view, void*>(entries[i].key,
                                              requests[i].handle);
  });
  return status;
}

void SiProtocol::ReleaseState(Transaction& txn, VersionedStore& store,
                              bool /*committed*/) {
  // Release this store's commit locks in place (no vector churn).
  txn.ReleaseCommitLocks(store.id(), [&](const CommitLockRef& lock) {
    if (lock.entry != nullptr) {
      store.UnlockCommit(lock.entry, txn.id());
    } else {
      store.UnlockCommit(lock.key, txn.id());
    }
  });
}

}  // namespace streamsi
