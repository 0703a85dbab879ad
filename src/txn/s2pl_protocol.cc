#include "txn/s2pl_protocol.h"

namespace streamsi {

namespace {

/// The newest version of a key: a published one, once its lock is held.
Timestamp NewestUnderLock() { return kInfinityTs - 1; }

}  // namespace

Status S2plProtocol::Read(Transaction& txn, VersionedStore& store,
                          std::string_view key, std::string* value) {
  const std::string lock_key = Transaction::NamespacedKey(store.id(), key);
  STREAMSI_RETURN_NOT_OK(locks_.LockShared(lock_key, txn.id()));
  txn.RecordLock(store.id(), lock_key, /*exclusive=*/false);
  return ReadWithOverlay(txn, store, NewestUnderLock, key, value);
}

Status S2plProtocol::Write(Transaction& txn, VersionedStore& store,
                           std::string_view key, std::string_view value) {
  const std::string lock_key = Transaction::NamespacedKey(store.id(), key);
  STREAMSI_RETURN_NOT_OK(locks_.LockExclusive(lock_key, txn.id()));
  txn.RecordLock(store.id(), lock_key, /*exclusive=*/true);
  txn.MutableWriteSet(store.id()).Put(key, value);
  return Status::OK();
}

Status S2plProtocol::Delete(Transaction& txn, VersionedStore& store,
                            std::string_view key) {
  const std::string lock_key = Transaction::NamespacedKey(store.id(), key);
  STREAMSI_RETURN_NOT_OK(locks_.LockExclusive(lock_key, txn.id()));
  txn.RecordLock(store.id(), lock_key, /*exclusive=*/true);
  txn.MutableWriteSet(store.id()).Delete(key);
  return Status::OK();
}

Status S2plProtocol::Scan(
    Transaction& txn, VersionedStore& store,
    const std::function<bool(std::string_view, std::string_view)>& callback) {
  // Lock every visited key shared (predicate locking is out of scope), then
  // re-read it under the lock: the enumeration read it before locking.
  Status lock_status = Status::OK();
  std::string locked_value;
  const Status scan_status = ScanWithOverlay(
      txn, store, kInfinityTs - 1,
      [&](std::string_view key, std::string_view) {
        const std::string lock_key =
            Transaction::NamespacedKey(store.id(), key);
        lock_status = locks_.LockShared(lock_key, txn.id());
        if (!lock_status.ok()) return false;
        txn.RecordLock(store.id(), lock_key, /*exclusive=*/false);
        if (!ReadWithOverlay(txn, store, NewestUnderLock, key, &locked_value)
                 .ok()) {
          return true;  // deleted while the scan waited on the lock
        }
        return callback(key, locked_value);
      });
  STREAMSI_RETURN_NOT_OK(lock_status);
  return scan_status;
}

void S2plProtocol::FinalizeTxn(Transaction& txn, bool /*committed*/) {
  // Strictness: every lock is held until the very end of the transaction.
  for (const auto& lock : txn.TakeHeldLocks()) {
    locks_.Unlock(lock.key, txn.id());
  }
}

}  // namespace streamsi
