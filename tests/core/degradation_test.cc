// Graceful degradation: storage failures flip the database into
// kDegradedReadOnly instead of killing it — snapshot reads and scans keep
// serving from the in-memory MVCC state while write commits fail fast with
// Status::Unavailable; corruption fails the instance outright. The LSM
// flush worker retries transient background failures with bounded backoff
// before poisoning, and Database::Health() makes all of it observable.

#include <gtest/gtest.h>

#include <string>

#include "common/fault_env.h"
#include "core/streamsi.h"
#include "storage/faulty_backend.h"
#include "storage/hash_backend.h"
#include "storage/lsm_backend.h"
#include "stream/stream.h"
#include "tests/test_util.h"

namespace streamsi {
namespace {

class DegradationTest : public ::testing::Test {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.protocol = ProtocolType::kMvcc;
    options.backend = BackendType::kLsm;
    options.backend_options.sync_mode = SyncMode::kFsync;
    options.backend_options.env = &env_;
    options.backend_options.flush_retry_attempts = 2;
    options.backend_options.flush_retry_backoff_ms = 1;
    options.env = &env_;
    options.base_dir = "/db";
    return options;
  }

  std::unique_ptr<Database> CreateDb(StateId* a) {
    auto db = Database::Open(Options());
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    *a = (*(*db)->CreateState("a"))->id();
    EXPECT_TRUE((*db)->Recover().ok());
    return std::move(db).value();
  }

  static Status CommitOne(Database& db, StateId a, const std::string& key,
                          const std::string& value) {
    auto t = db.Begin();
    EXPECT_TRUE(t.ok());
    const Status write = db.txn_manager().Write((*t)->txn(), a, key, value);
    if (!write.ok()) return write;
    return (*t)->Commit();
  }

  static std::string ReadOne(Database& db, StateId a, const std::string& key) {
    auto t = db.Begin();
    EXPECT_TRUE(t.ok());
    std::string value;
    const Status status = db.txn_manager().Read((*t)->txn(), a, key, &value);
    EXPECT_TRUE((*t)->Commit().ok()) << "read-only commit must keep working";
    return status.ok() ? value : "";
  }

  FaultEnv env_{/*seed=*/7};
};

TEST_F(DegradationTest, EnospcDuringCommitDegradesToReadOnly) {
  StateId a;
  auto db = CreateDb(&a);
  ASSERT_TRUE(CommitOne(*db, a, "k", "v1").ok());
  EXPECT_EQ(db->health(), DatabaseHealth::kHealthy);

  // The disk fills: the commit's durable record hits NoSpace and the
  // health machine flips to read-only.
  env_.SetNoSpaceByteBudget(0);
  const Status failed = CommitOne(*db, a, "k", "v2");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(db->health(), DatabaseHealth::kDegradedReadOnly);

  // Reads and scans keep serving the pre-failure state.
  EXPECT_EQ(ReadOne(*db, a, "k"), "v1");
  {
    auto t = db->Begin();
    ASSERT_TRUE(t.ok());
    int rows = 0;
    EXPECT_TRUE(db->txn_manager()
                    .Scan((*t)->txn(), a,
                          [&](std::string_view, std::string_view) {
                            ++rows;
                            return true;
                          })
                    .ok());
    EXPECT_TRUE((*t)->Commit().ok());
    EXPECT_EQ(rows, 1);
  }

  // Write commits now fail FAST with Unavailable (admission gate, before
  // any IO or conflict accounting) — even after the disk frees up, because
  // health transitions are monotone until reopen.
  env_.SetNoSpaceByteBudget(FaultEnv::kUnlimited);
  const Status rejected = CommitOne(*db, a, "k", "v3");
  EXPECT_TRUE(rejected.IsUnavailable()) << rejected.ToString();
  EXPECT_EQ(ReadOne(*db, a, "k"), "v1");

  // Checkpoints are refused too: pruning while storage fails risks
  // deleting the only good copy.
  EXPECT_TRUE(db->Checkpoint().IsUnavailable());

  const HealthReport report = db->Health();
  EXPECT_EQ(report.state, DatabaseHealth::kDegradedReadOnly);
  EXPECT_TRUE(report.first_error.IsNoSpace()) << report.first_error.ToString();
  EXPECT_GE(report.commit_io_failures, 1u);
  EXPECT_GE(report.degraded_commit_rejections, 1u);
  ASSERT_EQ(report.stores.size(), 1u);
  EXPECT_EQ(report.stores[0].name, "a");
}

TEST_F(DegradationTest, TransientBackgroundFailureRetriesWithoutDegrading) {
  StateId a;
  auto db = CreateDb(&a);
  ASSERT_TRUE(CommitOne(*db, a, "k", "v").ok());
  // Commits write only the log: put the key's checkpoint image into the
  // memtable so the flush below has work.
  ASSERT_TRUE(db->GetState(a)->WriteCheckpointImages(kInfinityTs).ok());

  // One transient sync failure during the background flush: the worker's
  // bounded-backoff retry (fresh SSTable file number, atomic manifest)
  // absorbs it without poisoning anything.
  env_.schedule().Arm("env.sync", /*after=*/0, /*count=*/1,
                      Status::IoError("transient flush hiccup"));
  auto* backend = db->GetState(a)->backend();
  EXPECT_TRUE(backend->Flush().ok());
  env_.schedule().Disarm("env.sync");

  EXPECT_EQ(db->health(), DatabaseHealth::kHealthy);
  const HealthReport report = db->Health();
  ASSERT_EQ(report.stores.size(), 1u);
  EXPECT_TRUE(report.stores[0].backend_status.ok());
  EXPECT_GE(report.stores[0].flush_retries, 1u);
  EXPECT_TRUE(CommitOne(*db, a, "k", "v2").ok());
}

TEST_F(DegradationTest, PersistentBackgroundFailurePoisonsAndDegrades) {
  StateId a;
  auto db = CreateDb(&a);
  ASSERT_TRUE(CommitOne(*db, a, "k", "v").ok());
  // Commits write only the log: put the key's checkpoint image into the
  // memtable so the flush below has work.
  ASSERT_TRUE(db->GetState(a)->WriteCheckpointImages(kInfinityTs).ok());

  // Every append fails from here: the flush worker exhausts its retries,
  // poisons the store, and the failure callback degrades the database.
  env_.schedule().Arm("env.append", /*after=*/0, /*count=*/-1,
                      Status::IoError("dead disk"));
  auto* backend = db->GetState(a)->backend();
  EXPECT_FALSE(backend->Flush().ok());
  env_.schedule().Disarm("env.append");

  EXPECT_EQ(db->health(), DatabaseHealth::kDegradedReadOnly);
  const HealthReport report = db->Health();
  ASSERT_EQ(report.stores.size(), 1u);
  EXPECT_FALSE(report.stores[0].backend_status.ok());
  EXPECT_GE(report.stores[0].flush_retries, 2u) << "bounded retries ran";
  EXPECT_FALSE(report.first_error.ok());

  // Post-mortem contract: reads serve, writes fail Unavailable.
  EXPECT_EQ(ReadOne(*db, a, "k"), "v");
  EXPECT_TRUE(CommitOne(*db, a, "k", "v2").IsUnavailable());
}

TEST_F(DegradationTest, DegradedDatabaseRecoversAfterReopen) {
  StateId a;
  {
    auto db = CreateDb(&a);
    ASSERT_TRUE(CommitOne(*db, a, "k", "v1").ok());
    env_.SetNoSpaceByteBudget(0);
    EXPECT_FALSE(CommitOne(*db, a, "k", "v2").ok());
    EXPECT_EQ(db->health(), DatabaseHealth::kDegradedReadOnly);
  }
  // The operator fixes the disk and restarts the process: a fresh Open
  // recovers the durable state and serves writes again.
  env_.SetNoSpaceByteBudget(FaultEnv::kUnlimited);
  auto db = Database::Open(Options());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->health(), DatabaseHealth::kHealthy);
  EXPECT_EQ(ReadOne(**db, a, "k"), "v1");
  EXPECT_TRUE(CommitOne(**db, a, "k", "v2").ok());
  EXPECT_EQ(ReadOne(**db, a, "k"), "v2");
}

// A stream query whose TO_TABLE target degrades to read-only MID-STREAM:
// the batch in flight when the disk filled must be poisoned at its commit
// boundary (nothing of it published), later batches must fail fast at BOT
// without burning per-tuple retry budgets, and the topology must still
// drain to EOS instead of wedging.
TEST_F(DegradationTest, StreamIntoDegradingDatabasePoisonsAtBatchBoundary) {
  StateId a;
  auto db = CreateDb(&a);
  TransactionalTable<std::uint64_t, double> table(&db->txn_manager(),
                                                  db->GetState(a));

  std::vector<StreamElement<std::pair<std::uint64_t, double>>> elements;
  // Batch 1: commits while healthy.
  elements.emplace_back(Punctuation::kBeginTxn);
  elements.emplace_back(std::make_pair(std::uint64_t{1}, 1.0), 0);
  elements.emplace_back(Punctuation::kCommitTxn);
  // Batch 2: the disk fills between its BOT and its COMMIT (see the tap
  // below) — its writes land in memory, the commit's IO fails, and the
  // whole batch must roll back.
  elements.emplace_back(Punctuation::kBeginTxn);
  elements.emplace_back(std::make_pair(std::uint64_t{2}, 2.0), 1);
  elements.emplace_back(std::make_pair(std::uint64_t{3}, 3.0), 2);
  elements.emplace_back(Punctuation::kCommitTxn);
  // Batch 3: the database is read-only now; BOT fails fast Unavailable.
  elements.emplace_back(Punctuation::kBeginTxn);
  elements.emplace_back(std::make_pair(std::uint64_t{4}, 4.0), 3);
  elements.emplace_back(Punctuation::kCommitTxn);
  elements.emplace_back(Punctuation::kEndOfStream);

  Topology topology;
  auto ctx = std::make_shared<StreamTxnContext>(&db->txn_manager());
  auto* source =
      topology.Add<VectorSource<std::pair<std::uint64_t, double>>>(
          std::move(elements));
  // Tap between source and sink: fill the disk right before batch 2's
  // second tuple, so degradation strikes with a transaction open.
  Publisher<std::pair<std::uint64_t, double>> tap;
  source->Subscribe(
      [&](const StreamElement<std::pair<std::uint64_t, double>>& e) {
        if (e.is_data() && e.data().first == 3) {
          env_.SetNoSpaceByteBudget(0);
        }
        tap.Publish(e);
      });
  auto* to_table =
      topology.Add<ToTable<std::pair<std::uint64_t, double>, std::uint64_t,
                           double>>(
          &tap, table, ctx,
          [](const std::pair<std::uint64_t, double>& p) { return p.first; },
          [](const std::pair<std::uint64_t, double>& p) { return p.second; });
  topology.Start();
  topology.Join();  // drains to EOS — no wedge

  EXPECT_EQ(db->health(), DatabaseHealth::kDegradedReadOnly);
  // Batch 1 committed; nothing of batches 2 and 3 published.
  env_.SetNoSpaceByteBudget(FaultEnv::kUnlimited);
  auto rows = SnapshotOf(&db->txn_manager(), table);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u) << "a poisoned batch published its tail";
  EXPECT_EQ((*rows)[0].first, 1u);
  EXPECT_EQ(to_table->write_count(), 3u);  // k=1,2,3 applied in-memory
  EXPECT_GE(to_table->error_count(), 1u);  // batch 2's commit + batch 3
}

// One schedule, two layers: env-level faults (torn WAL write) and
// backend-level faults (failed apply) armed through the SAME FaultSchedule,
// so a single test composes both without two fault vocabularies.
TEST_F(DegradationTest, EnvAndBackendFaultsComposeOnOneSchedule) {
  auto faulty = std::make_unique<FaultyBackend>(
      std::make_unique<HashTableBackend>(), &env_.schedule());
  FaultyBackend* backend = faulty.get();

  env_.schedule().Arm("backend.put", /*after=*/1, /*count=*/1,
                      Status::IoError("injected apply failure"));
  env_.schedule().Arm("env.append", /*after=*/0, /*count=*/1,
                      Status::IoError("injected torn write"));

  // Backend-level: second put fails.
  ASSERT_TRUE(backend->Put("k1", "v", true).ok());
  EXPECT_TRUE(backend->Put("k2", "v", true).IsIoError());
  ASSERT_TRUE(backend->Put("k3", "v", true).ok());

  // Env-level: first append through the same schedule fails.
  auto file = env_.NewWritableFile("/f", true);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("x").IsIoError());
  ASSERT_TRUE((*file)->Append("x").ok());

  // One ledger counts both layers.
  EXPECT_EQ(env_.schedule().injected_failures(), 2u);
  EXPECT_EQ(backend->injected_failures(), 2u);
  EXPECT_EQ(env_.schedule().HitCount("backend.put"), 3u);
  EXPECT_EQ(env_.schedule().HitCount("env.append"), 2u);
}

}  // namespace
}  // namespace streamsi
