// SiProtocol: the paper's MVCC snapshot-isolation protocol (§4.2).
//
//  * Read: own write set first, then the newest version visible at the
//    transaction's pinned ReadCTS (first read pins the group's LastCTS,
//    later reads reuse it — every operation reads from the same snapshot).
//    At read committed every read raises the pins to a fresh published cut
//    instead.
//  * Write: append to the dirty array; writes never block.
//  * Commit: per key, claim commit ownership (the "additional write locks"
//    for multiple writers), check First-Committer-Wins (a committed version
//    newer than the older of the transaction's BOT timestamp and its
//    snapshot of the state forces an abort), apply in memory, log the
//    commit record, and finally advance the group's commit timestamp.
//  * Abort: drop the write set; committed data was never touched, so no
//    undo is needed.

#ifndef STREAMSI_TXN_SI_PROTOCOL_H_
#define STREAMSI_TXN_SI_PROTOCOL_H_

#include "txn/protocol.h"

namespace streamsi {

class SiProtocol final : public ConcurrencyProtocol {
 public:
  explicit SiProtocol(StateContext* context) : ConcurrencyProtocol(context) {}

  ProtocolType type() const override { return ProtocolType::kMvcc; }

  Status Read(Transaction& txn, VersionedStore& store, std::string_view key,
              std::string* value) override;
  Status Write(Transaction& txn, VersionedStore& store, std::string_view key,
               std::string_view value) override;
  Status Delete(Transaction& txn, VersionedStore& store,
                std::string_view key) override;
  Status Scan(Transaction& txn, VersionedStore& store,
              const std::function<bool(std::string_view, std::string_view)>&
                  callback) override;
  Status ScanRange(Transaction& txn, VersionedStore& store,
                   std::string_view lo, std::string_view hi,
                   const std::function<bool(std::string_view,
                                            std::string_view)>&
                       callback) override;

  Status Validate(Transaction& txn, VersionedStore& store) override;
  void ReleaseState(Transaction& txn, VersionedStore& store,
                    bool committed) override;

  /// Batch-amortized validation (default on): Phase 1 validates and locks
  /// the whole write set in one LockForCommitBatch pass per store. The
  /// per-key path is kept verbatim behind this switch — the conflict-
  /// semantics differential test runs both against the same interleavings.
  void set_batched_validation(bool on) { batched_validation_ = on; }
  bool batched_validation() const { return batched_validation_; }

 private:
  /// The timestamp the next read of `store` runs at: the snapshot, or at
  /// read committed a fresh cut.
  Timestamp ReadTs(Transaction& txn, VersionedStore& store);

  /// Both validate `ws` under First-Committer-Wins: a committed
  /// modification newer than `newer_than` aborts the transaction.
  Status ValidateBatched(Transaction& txn, VersionedStore& store,
                         const WriteSet& ws, Timestamp newer_than);
  Status ValidatePerKey(Transaction& txn, VersionedStore& store,
                        const WriteSet& ws, Timestamp newer_than);

  bool batched_validation_ = true;
};

}  // namespace streamsi

#endif  // STREAMSI_TXN_SI_PROTOCOL_H_
