// ConcurrencyProtocol: the pluggable concurrency-control strategy of a
// transactional store.
//
// The paper's contribution is the MVCC/snapshot-isolation protocol (§4.2);
// S2PL and BOCC are the baselines of its evaluation (§5). All three share
// the same write-set/commit pipeline so that the consistency protocol for
// multiple states (§4.3) applies uniformly ("All concurrency control
// protocols use fundamentally the same consistency protocol").
//
// Commit pipeline (driven by TransactionManager for the whole state group):
//   PreCommit(txn)                         -- once per transaction
//   Validate(txn, store)                   -- per written state
//   Apply(txn, store, commit_ts, floor)    -- per written state
//   PostCommit(txn, commit_ts, committed)  -- once per transaction
//   ReleaseState(txn, store, committed)    -- per touched state
//   FinalizeTxn(txn, committed)            -- once per transaction
//
// `floor` is the lazily computed GC watermark: Apply resolves it only when
// a key's version array is full, so the common commit skips the
// transaction-table scans entirely.

#ifndef STREAMSI_TXN_PROTOCOL_H_
#define STREAMSI_TXN_PROTOCOL_H_

#include <functional>
#include <memory>
#include <string>

#include "txn/state_context.h"
#include "txn/transaction.h"
#include "txn/types.h"
#include "txn/versioned_store.h"

namespace streamsi {

class ConcurrencyProtocol {
 public:
  explicit ConcurrencyProtocol(StateContext* context) : context_(context) {}
  virtual ~ConcurrencyProtocol() = default;

  virtual ProtocolType type() const = 0;

  /// The transaction's snapshot of `store`: the cached one, or pinned now
  /// from the published, clamped cut (§4.2 pin-on-first-read) and cached.
  Timestamp SnapshotFor(Transaction& txn, VersionedStore& store);

  /// Transactional point read (reads-own-writes included).
  virtual Status Read(Transaction& txn, VersionedStore& store,
                      std::string_view key, std::string* value) = 0;

  /// Buffers an insert/update in the transaction's write set.
  virtual Status Write(Transaction& txn, VersionedStore& store,
                       std::string_view key, std::string_view value) = 0;

  /// Buffers a delete.
  virtual Status Delete(Transaction& txn, VersionedStore& store,
                        std::string_view key) = 0;

  /// Transactional scan (committed snapshot overlaid with own writes).
  virtual Status Scan(
      Transaction& txn, VersionedStore& store,
      const std::function<bool(std::string_view, std::string_view)>&
          callback) = 0;

  /// Transactional ordered range scan over [lo, hi) — empty `hi` means "to
  /// the end" — overlaid with own writes, keys visited in byte-wise order
  /// at a single §4.3 snapshot cut.
  ///
  /// MVCC/SI supports this today (SiProtocol override): a range read is
  /// just point visibility applied along the ordered key index, and the
  /// pinned snapshot already excludes phantoms by construction. The
  /// lock-based baselines do NOT: S2PL would need predicate/next-key range
  /// locks to keep a concurrent insert into [lo, hi) from creating a
  /// phantom between a scan and its re-read, and BOCC would need the range
  /// predicate folded into its validate-against-committed-write-sets check.
  /// Until that exists they inherit this default and refuse loudly rather
  /// than return unserializable results.
  virtual Status ScanRange(
      Transaction& txn, VersionedStore& store, std::string_view lo,
      std::string_view hi,
      const std::function<bool(std::string_view, std::string_view)>&
          callback) {
    (void)txn;
    (void)store;
    (void)lo;
    (void)hi;
    (void)callback;
    return Status::NotSupported(
        "range scans are not implemented for this concurrency protocol: "
        "phantom protection (predicate/range locking or range validation) "
        "is required first; use the MVCC protocol");
  }

  // ------------------------------------------------------ commit pipeline ---

  /// Entered once before any Validate (BOCC takes its global validation
  /// critical section here).
  virtual Status PreCommit(Transaction& txn) {
    (void)txn;
    return Status::OK();
  }

  /// Checks whether this transaction may commit its writes to `store`;
  /// may acquire commit-time resources that ReleaseState() frees.
  virtual Status Validate(Transaction& txn, VersionedStore& store) = 0;

  /// Installs the write set of `store` at `commit_ts`. `floor` resolves the
  /// GC watermark on demand (full version arrays only).
  virtual Status Apply(Transaction& txn, VersionedStore& store,
                       Timestamp commit_ts, GcFloor& floor);

  /// Left once after all Apply calls (or after a validation failure).
  virtual void PostCommit(Transaction& txn, Timestamp commit_ts,
                          bool committed) {
    (void)txn;
    (void)commit_ts;
    (void)committed;
  }

  /// Frees per-state commit resources.
  virtual void ReleaseState(Transaction& txn, VersionedStore& store,
                            bool committed) {
    (void)txn;
    (void)store;
    (void)committed;
  }

  /// Frees transaction-wide resources (S2PL lock release = strictness).
  virtual void FinalizeTxn(Transaction& txn, bool committed) {
    (void)txn;
    (void)committed;
  }

 protected:
  /// Shared Apply implementation: installs the effective write set in
  /// memory, in first-touch order. Durability is the commit record's job
  /// (TransactionManager::GlobalCommit), not the store's.
  static Status ApplyWriteSet(Transaction& txn, VersionedStore& store,
                              Timestamp commit_ts, GcFloor& floor);

  /// Shared point read: the transaction's own write of `key`, else the
  /// committed version visible at `read_ts()` — resolved only on that path,
  /// so a read served from the write set pins no snapshot (§4.2).
  template <typename ReadTsFn>
  static Status ReadWithOverlay(Transaction& txn, VersionedStore& store,
                                ReadTsFn&& read_ts, std::string_view key,
                                std::string* value) {
    if (const WriteSet* ws = txn.FindWriteSet(store.id()); ws != nullptr) {
      if (const auto own = ws->Find(key); own.written) {
        if (own.is_delete) return Status::NotFound("deleted by self");
        value->assign(own.value.data(), own.value.size());
        return Status::OK();
      }
    }
    return store.ReadCommitted(read_ts(), key, value);
  }

  /// Shared scan: committed snapshot at `read_ts` overlaid with the
  /// transaction's own writes.
  static Status ScanWithOverlay(
      Transaction& txn, VersionedStore& store, Timestamp read_ts,
      const std::function<bool(std::string_view, std::string_view)>&
          callback);

  /// Shared ordered range scan: committed [lo, hi) snapshot at `read_ts`
  /// merged in key order with the transaction's own in-range writes
  /// (own-write wins per key; own deletes suppress committed rows).
  static Status ScanRangeWithOverlay(
      Transaction& txn, VersionedStore& store, Timestamp read_ts,
      std::string_view lo, std::string_view hi,
      const std::function<bool(std::string_view, std::string_view)>&
          callback);

  StateContext* context_;
};

/// Instantiates a protocol bound to `context`.
std::unique_ptr<ConcurrencyProtocol> MakeProtocol(ProtocolType type,
                                                  StateContext* context);

}  // namespace streamsi

#endif  // STREAMSI_TXN_PROTOCOL_H_
