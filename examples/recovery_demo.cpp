// Persistence & recovery demo: committed transactions survive "crashes"
// (process restarts), unfinished multi-state group commits are purged so
// the states always come back mutually consistent (§4 requirements,
// recovery rule of §4.3), and the durability lifecycle keeps restarts
// cheap: a checkpoint bounds restart work by data since the checkpoint,
// and the durable state catalog means a restarted process is ready to
// serve WITHOUT re-declaring its schema.
//
//   $ ./examples/recovery_demo [dir]

#include <cstdio>

#include "core/streamsi.h"

using namespace streamsi;

namespace {

DatabaseOptions Options(const std::string& dir) {
  DatabaseOptions options;
  options.protocol = ProtocolType::kMvcc;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  options.base_dir = dir;
  return options;
}

struct Schema {
  std::unique_ptr<Database> db;
  TransactionalTable<std::uint64_t, std::uint64_t> accounts;
  TransactionalTable<std::uint64_t, std::uint64_t> audit;
  GroupId group;
};

/// Life 1 only: declares the schema. The catalog persists it, so every
/// later life skips this entirely.
Schema CreateSchema(const std::string& dir) {
  auto db = Database::Open(Options(dir));
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  Schema schema;
  schema.db = std::move(db).value();
  schema.accounts = TransactionalTable<std::uint64_t, std::uint64_t>(
      &schema.db->txn_manager(), *schema.db->CreateState("accounts"));
  schema.audit = TransactionalTable<std::uint64_t, std::uint64_t>(
      &schema.db->txn_manager(), *schema.db->CreateState("audit"));
  schema.group =
      schema.db->CreateGroup({schema.accounts.id(), schema.audit.id()});
  const Status recovered = schema.db->Recover();
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover: %s\n", recovered.ToString().c_str());
    std::exit(1);
  }
  return schema;
}

/// Later lives: Open alone replays the catalog, reopens the states and
/// recovers — restart-to-ready with no CreateState/CreateGroup calls.
Schema Reopen(const std::string& dir) {
  auto db = Database::Open(Options(dir));
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  Schema schema;
  schema.db = std::move(db).value();
  VersionedStore* accounts = schema.db->FindState("accounts");
  VersionedStore* audit = schema.db->FindState("audit");
  if (accounts == nullptr || audit == nullptr) {
    std::fprintf(stderr, "catalog did not restore the schema\n");
    std::exit(1);
  }
  schema.accounts = TransactionalTable<std::uint64_t, std::uint64_t>(
      &schema.db->txn_manager(), accounts);
  schema.audit = TransactionalTable<std::uint64_t, std::uint64_t>(
      &schema.db->txn_manager(), audit);
  schema.group = schema.db->CreateGroup({accounts->id(), audit->id()});
  return schema;
}

void Report(Schema& schema, const char* label) {
  auto txn = schema.db->Begin();
  std::uint64_t balance_total = 0;
  std::size_t accounts = 0;
  schema.accounts.Scan((*txn)->txn(),
                       [&](const std::uint64_t&, const std::uint64_t& v) {
                         balance_total += v;
                         ++accounts;
                         return true;
                       });
  std::size_t audit_rows = 0;
  schema.audit.Scan((*txn)->txn(),
                    [&](const std::uint64_t&, const std::uint64_t&) {
                      ++audit_rows;
                      return true;
                    });
  (void)(*txn)->Commit();
  std::printf("%s: %zu accounts (total %llu), %zu audit rows, group "
              "LastCTS=%llu, log segments=%zu (%llu bytes)\n",
              label, accounts,
              static_cast<unsigned long long>(balance_total), audit_rows,
              static_cast<unsigned long long>(
                  schema.db->context().LastCts(schema.group)),
              schema.db->group_log()->SegmentCount(),
              static_cast<unsigned long long>(
                  schema.db->group_log()->TotalSizeBytes()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : "/tmp/streamsi_recovery_demo";
  (void)fsutil::RemoveDirRecursive(dir);

  // --- Life 1: create data, commit transactions, checkpoint, "crash". ----
  {
    Schema schema = CreateSchema(dir);
    for (std::uint64_t i = 0; i < 10; ++i) {
      auto txn = schema.db->Begin();
      schema.accounts.Put((*txn)->txn(), i, 100 * (i + 1));
      schema.audit.Put((*txn)->txn(), i, i);
      const Status status = (*txn)->Commit();
      if (!status.ok()) {
        std::fprintf(stderr, "commit failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    // One aborted transaction: must leave no trace.
    {
      auto txn = schema.db->Begin();
      schema.accounts.Put((*txn)->txn(), 999, 1);
      (*txn)->Abort();
    }
    // Checkpoint: flushes the backends, cuts the group log to one segment
    // — restart work is now bounded by data since this point.
    const Status checkpointed = schema.db->Checkpoint();
    if (!checkpointed.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n",
                   checkpointed.ToString().c_str());
      return 1;
    }
    Report(schema, "life 1 (checkpointed)");
    // Destructor without clean shutdown protocol == crash for our purposes:
    // durability came from the per-commit fsyncs + the checkpoint.
  }

  // --- Life 2: restart WITHOUT re-declaring states; the catalog restores
  // the schema and recovery runs inside Open. ----------------------------
  {
    Schema schema = Reopen(dir);
    Report(schema, "life 2 (recovered)  ");

    // Simulate a *torn group commit*: state `accounts` gets a version
    // installed, but the crash hits before the commit's record is written —
    // as if the process died between phase 2 and phase 3. The record is the
    // commit's only redo, so nothing of it survives the restart.
    VersionedStore* store = schema.db->GetState(schema.accounts.id());
    const Timestamp torn = schema.db->context().clock().Next();
    (void)store->ApplyCommitted(EncodeToString<std::uint64_t>(0),
                                EncodeToString<std::uint64_t>(424242), false,
                                torn, 0);
    std::printf("life 2: injected torn commit of account 0 at cts=%llu "
                "(no group record)\n",
                static_cast<unsigned long long>(torn));
  }

  // --- Life 3: recovery must purge the torn version. ----------------------
  {
    Schema schema = Reopen(dir);
    auto txn = schema.db->Begin();
    auto account0 = schema.accounts.Get((*txn)->txn(), 0);
    (void)(*txn)->Commit();
    std::printf("life 3 (recovered)  : account 0 = %llu %s\n",
                static_cast<unsigned long long>(account0.value_or(0)),
                *account0 == 100 ? "(torn commit purged: consistent)"
                                 : "(UNEXPECTED)");
    Report(schema, "life 3 (final)      ");
  }
  return 0;
}
