// The redo record of one commit — the group-commit log's only data.
//
// Every durable commit appends one kReplicatedCommit record: the groups the
// commit advanced, its commit timestamp, and its write sets.
//
//   [varint32 group count] [varint32 group id]... [varint64 cts]
//   [varint32 state count], then per state:
//     [varint32 state id] [varint32 entry count], then per entry:
//       [varint32 key length] [key] [1 byte: 1 = delete]
//       [varint32 value length] [value]      (absent for a delete)
//
// A data-less kGroupCommit record (the format before commits carried their
// write sets) is the same prefix with no suffix; its versions live in the
// backend blobs the same era wrote through.
//
// Recovery replays the records above each store's checkpoint cut, and a
// follower applies the shipped ones as they arrive. Both go through
// ReplayCommitWriteSets: one replay implementation.

#ifndef STREAMSI_CORE_COMMIT_RECORD_H_
#define STREAMSI_CORE_COMMIT_RECORD_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/small_vec.h"
#include "common/status.h"
#include "txn/state_context.h"
#include "txn/transaction.h"
#include "txn/versioned_store.h"

namespace streamsi {

/// One decoded commit record. `write_sets` views the still-encoded suffix
/// (empty for a data-less record).
struct CommitRecord {
  SmallVec<GroupId, 64> groups;
  Timestamp cts = 0;
  std::string_view write_sets;
};

/// Decodes the group/cts prefix of a kGroupCommit or kReplicatedCommit
/// payload.
Status DecodeCommitRecord(std::string_view payload, CommitRecord* record);

/// Appends the write-set suffix for `txn`'s writes to `states`.
void EncodeCommitWriteSets(const Transaction& txn, const StateId* states,
                           std::size_t count, std::string* out);

/// Picks where one state block of a record goes during replay: sets
/// `*store` to the store to install into, or to nullptr to skip the block.
/// A non-OK status aborts the replay before anything is installed.
using ReplayTarget = std::function<Status(StateId, VersionedStore** store)>;

/// Installs a record's write sets through VersionedStore::ReplayCommitted,
/// which is idempotent: versions an image or an earlier replay already
/// holds are skipped. The whole record is bounds-checked and every block
/// resolved before the first install.
Status ReplayCommitWriteSets(const CommitRecord& record,
                             const ReplayTarget& target,
                             StateContext* context);

}  // namespace streamsi

#endif  // STREAMSI_CORE_COMMIT_RECORD_H_
