// S2plProtocol: strict two-phase locking baseline (§5, Eswaran et al. [6]).
//
// Readers take shared locks, writers exclusive locks, all held until the
// transaction finishes (strictness). Deadlocks are avoided by wait-die.
// Every value is read under its lock, at the newest version: a writer holds
// its exclusive lock until it published (or purged after a failed commit).
// Writes are still buffered in the write set and installed at commit — the
// exclusive lock guarantees nobody observes intermediate states, and reusing
// the shared commit pipeline keeps the multi-state consistency protocol
// identical across protocols, as in the paper's evaluation.

#ifndef STREAMSI_TXN_S2PL_PROTOCOL_H_
#define STREAMSI_TXN_S2PL_PROTOCOL_H_

#include "txn/lock_manager.h"
#include "txn/protocol.h"

namespace streamsi {

class S2plProtocol final : public ConcurrencyProtocol {
 public:
  explicit S2plProtocol(StateContext* context)
      : ConcurrencyProtocol(context) {}

  ProtocolType type() const override { return ProtocolType::kS2pl; }

  Status Read(Transaction& txn, VersionedStore& store, std::string_view key,
              std::string* value) override;
  Status Write(Transaction& txn, VersionedStore& store, std::string_view key,
               std::string_view value) override;
  Status Delete(Transaction& txn, VersionedStore& store,
                std::string_view key) override;
  Status Scan(Transaction& txn, VersionedStore& store,
              const std::function<bool(std::string_view, std::string_view)>&
                  callback) override;

  Status Validate(Transaction& txn, VersionedStore& store) override {
    (void)txn;
    (void)store;
    return Status::OK();  // the locks already guarantee admissibility
  }

  void FinalizeTxn(Transaction& txn, bool committed) override;

  LockManager& lock_manager() { return locks_; }

 private:
  LockManager locks_;
};

}  // namespace streamsi

#endif  // STREAMSI_TXN_S2PL_PROTOCOL_H_
