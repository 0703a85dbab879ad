#include "txn/bocc_protocol.h"

namespace streamsi {

Status BoccProtocol::Read(Transaction& txn, VersionedStore& store,
                          std::string_view key, std::string* value) {
  return ReadWithOverlay(
      txn, store,
      [&] {
        txn.RecordRead(store.id(), key);
        return SnapshotFor(txn, store);
      },
      key, value);
}

Status BoccProtocol::Write(Transaction& txn, VersionedStore& store,
                           std::string_view key, std::string_view value) {
  txn.MutableWriteSet(store.id()).Put(key, value);
  return Status::OK();
}

Status BoccProtocol::Delete(Transaction& txn, VersionedStore& store,
                            std::string_view key) {
  txn.MutableWriteSet(store.id()).Delete(key);
  return Status::OK();
}

Status BoccProtocol::Scan(
    Transaction& txn, VersionedStore& store,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  return ScanWithOverlay(
      txn, store, SnapshotFor(txn, store),
      [&](std::string_view key, std::string_view value) {
        txn.RecordRead(store.id(), key);
        return callback(key, value);
      });
}

namespace {

bool HasWrites(const Transaction& txn) {
  bool writes = false;
  txn.ForEachWrittenState([&](StateId) { writes = true; });
  return writes;
}

}  // namespace

Status BoccProtocol::PreCommit(Transaction& txn) {
  // Read-only commits validate outside the critical section: their pins
  // may be what a writer inside it waits on (a full version array), and a
  // commit they miss has a cts above their snapshot, so they serialize
  // before it.
  if (HasWrites(txn)) commit_mutex_.lock();
  return Status::OK();
}

Status BoccProtocol::Validate(Transaction& txn, VersionedStore& store) {
  (void)store;  // validation is transaction-global; run it once
  const bool writes = HasWrites(txn);
  if (writes && validated_marker_ == txn.id()) return Status::OK();
  // Every read ran at one of the transaction's cached snapshots; judging
  // the whole read set against the oldest is conservative and correct.
  if (log_.HasConflict(txn.OldestCachedSnapshot(), txn.read_set())) {
    return Status::Aborted(
        "BOCC backward validation: read set overlaps a newer commit");
  }
  if (writes) validated_marker_ = txn.id();
  return Status::OK();
}

void BoccProtocol::PostCommit(Transaction& txn, Timestamp commit_ts,
                              bool committed) {
  if (!HasWrites(txn)) return;  // never entered the critical section
  if (committed) {
    std::unordered_set<std::string> write_keys;
    for (StateId state : txn.WrittenStates()) {
      const WriteSet* ws = txn.FindWriteSet(state);
      if (ws == nullptr) continue;
      for (const auto& entry : ws->entries()) {
        write_keys.insert(Transaction::NamespacedKey(state, entry.key));
      }
    }
    log_.Append(commit_ts, std::move(write_keys));
  }
  validated_marker_ = 0;
  commit_mutex_.unlock();

  if (commits_since_prune_.fetch_add(1, std::memory_order_relaxed) % 256 ==
      255) {
    // No active or future snapshot lies below the GC watermark.
    log_.Prune(context_->OldestActiveVersion());
  }
}

}  // namespace streamsi
