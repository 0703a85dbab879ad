// BoccProtocol: backward-oriented optimistic concurrency control baseline
// (§5, Härder 1984 [8]).
//
// Read phase: reads go to the transaction's pinned snapshot (the cut SI
// readers pin) and are recorded in its read set; writes are buffered.
// Validation phase (for a writer inside a global critical section, as
// classic OCC requires validate+write to be atomic): the transaction aborts
// if a commit with a timestamp above its snapshot — one its reads could not
// see — wrote a key it read. Write phase: install the write sets.
//
// Designed for scenarios with few conflicts — which is exactly why the
// paper finds it ~5 % faster than MVCC at low contention with many readers
// and collapsing once contention rises (§5.2).

#ifndef STREAMSI_TXN_BOCC_PROTOCOL_H_
#define STREAMSI_TXN_BOCC_PROTOCOL_H_

#include <atomic>
#include <mutex>

#include "txn/committed_log.h"
#include "txn/protocol.h"

namespace streamsi {

class BoccProtocol final : public ConcurrencyProtocol {
 public:
  explicit BoccProtocol(StateContext* context)
      : ConcurrencyProtocol(context) {}

  ProtocolType type() const override { return ProtocolType::kBocc; }

  Status Read(Transaction& txn, VersionedStore& store, std::string_view key,
              std::string* value) override;
  Status Write(Transaction& txn, VersionedStore& store, std::string_view key,
               std::string_view value) override;
  Status Delete(Transaction& txn, VersionedStore& store,
                std::string_view key) override;
  Status Scan(Transaction& txn, VersionedStore& store,
              const std::function<bool(std::string_view, std::string_view)>&
                  callback) override;

  Status PreCommit(Transaction& txn) override;
  Status Validate(Transaction& txn, VersionedStore& store) override;
  void PostCommit(Transaction& txn, Timestamp commit_ts,
                  bool committed) override;

  const CommittedTxnLog& committed_log() const { return log_; }

 private:
  CommittedTxnLog log_;
  /// Serializes validate+write for write commits. They draw the cts and
  /// append the log record under it, so the log is in cts order and holds
  /// every commit a validating writer's snapshot missed.
  std::mutex commit_mutex_;
  /// Txn currently validated inside the critical section (guarded by
  /// commit_mutex_): Validate is called once per written state, but BOCC
  /// validation is transaction-global, so later calls become no-ops.
  TxnId validated_marker_ = 0;
  std::atomic<std::uint64_t> commits_since_prune_{0};
};

}  // namespace streamsi

#endif  // STREAMSI_TXN_BOCC_PROTOCOL_H_
