// Database checkpoints + durable state catalog (§4.1 "needs to be
// persistent", grown into a full durability lifecycle): restart work is
// bounded by data since the last checkpoint, the group-commit log's disk
// footprint stays bounded under sustained commits, a restarted process is
// ready to serve without re-declaring its schema, and checkpoints running
// concurrently with committers never lose an acked commit.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_env.h"
#include "core/streamsi.h"
#include "storage/lsm_backend.h"
#include "tests/test_util.h"

namespace streamsi {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.protocol = ProtocolType::kMvcc;
    options.backend = BackendType::kLsm;
    options.backend_options.sync_mode = SyncMode::kFsync;
    options.base_dir = dir_.path() + "/db";
    return options;
  }

  /// First life: declares the schema (two states, one explicit group).
  std::unique_ptr<Database> CreateDb(StateId* a, StateId* b, GroupId* g,
                                     DatabaseOptions options) {
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok());
    *a = (*(*db)->CreateState("a"))->id();
    *b = (*(*db)->CreateState("b"))->id();
    *g = (*db)->CreateGroup({*a, *b});
    EXPECT_TRUE((*db)->Recover().ok());
    return std::move(db).value();
  }

  /// Later lives: the catalog reopens everything — no re-declaration.
  std::unique_ptr<Database> ReopenDb(DatabaseOptions options) {
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok());
    return std::move(db).value();
  }

  static void CommitPair(Database& db, StateId a, StateId b,
                         const std::string& key, const std::string& value) {
    auto t = db.Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.txn_manager().Write((*t)->txn(), a, key, value).ok());
    ASSERT_TRUE(db.txn_manager().Write((*t)->txn(), b, key, value).ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }

  static std::string ReadOne(Database& db, StateId state,
                             const std::string& key) {
    auto t = db.Begin();
    EXPECT_TRUE(t.ok());
    std::string value;
    const Status status =
        db.txn_manager().Read((*t)->txn(), state, key, &value);
    EXPECT_TRUE((*t)->Commit().ok());
    return status.ok() ? value : "<" + status.ToString() + ">";
  }

  testing::TempDir dir_;
};

TEST_F(CheckpointTest, RestartToReadyWithoutRedeclaringStates) {
  StateId a, b;
  GroupId g;
  {
    auto db = CreateDb(&a, &b, &g, Options());
    CommitPair(*db, a, b, "k", "v1");
  }
  // Second life: Open alone reopens the catalog states and recovers.
  auto db = ReopenDb(Options());
  VersionedStore* store_a = db->FindState("a");
  VersionedStore* store_b = db->FindState("b");
  ASSERT_NE(store_a, nullptr);
  ASSERT_NE(store_b, nullptr);
  EXPECT_EQ(store_a->id(), a);
  EXPECT_EQ(store_b->id(), b);
  EXPECT_EQ(ReadOne(*db, a, "k"), "v1");
  EXPECT_EQ(ReadOne(*db, b, "k"), "v1");

  // Legacy-style re-declaration stays valid and idempotent: the existing
  // store comes back, ids are stable, no duplicate group appears.
  auto again = db->CreateState("a");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, store_a);
  const std::size_t groups_before = db->context().GroupCount();
  EXPECT_EQ(db->CreateGroup({a, b}), g);
  EXPECT_EQ(db->context().GroupCount(), groups_before);
  EXPECT_TRUE(db->Recover().ok());  // no-op second recovery

  // And the database accepts new work immediately.
  CommitPair(*db, a, b, "k2", "v2");
  EXPECT_EQ(ReadOne(*db, a, "k2"), "v2");
}

TEST_F(CheckpointTest, PermutedGroupRedeclarationDedupes) {
  StateId a, b;
  GroupId g;
  {
    auto db = CreateDb(&a, &b, &g, Options());
    CommitPair(*db, a, b, "k", "v");
  }
  auto db = ReopenDb(Options());
  // Same state SET in a different order is the same group.
  EXPECT_EQ(db->CreateGroup({b, a}), g);
  const std::size_t groups = db->context().GroupCount();
  EXPECT_EQ(db->CreateGroup({a, b}), g);
  EXPECT_EQ(db->context().GroupCount(), groups);
}

TEST_F(CheckpointTest, PartialCatalogUpgradeRecoversLateDeclaredStates) {
  // A directory whose catalog covers only SOME states (interrupted
  // upgrade): Open recovers the cataloged ones; the app re-declares the
  // rest (inline load) and calls Recover(), which must purge their torn
  // versions against the re-replayed group-log watermark — not no-op, and
  // not purge-everything at watermark 0.
  StateId a, b;
  GroupId g;
  Timestamp torn_cts = 0;
  {
    auto db = CreateDb(&a, &b, &g, Options());
    CommitPair(*db, a, b, "k", "good");
    // Torn commit on b only: versions persisted, no group record (blobs
    // written through at apply time, as directories from before commits
    // carried their write sets hold them).
    VersionedStore* store_b = db->GetState(b);
    torn_cts = db->context().clock().Next();
    ASSERT_TRUE(store_b
                    ->ApplyCommitted(EncodeToString(std::string("k")),
                                     "torn", false, torn_cts,
                                     /*oldest_active=*/0)
                    .ok());
    ASSERT_TRUE(store_b->WriteCheckpointImages(kInfinityTs).ok());
    // A second key whose only copy is the log: the late Recover() must
    // replay it into the re-declared state.
    CommitPair(*db, a, b, "log_only", "logged");
  }
  // Rebuild the catalog with only state "a" + its singleton group.
  const std::string catalog_path = Options().base_dir + "/catalog.log";
  ASSERT_TRUE(fsutil::RemoveFile(catalog_path).ok());
  {
    StateCatalog partial(SyncMode::kFsync, 0);
    ASSERT_TRUE(partial.Open(catalog_path).ok());
    ASSERT_TRUE(partial
                    .AppendState({a, BackendType::kLsm, "a",
                                  Options().base_dir + "/state_a"})
                    .ok());
    ASSERT_TRUE(partial.AppendGroup({0, /*singleton=*/true, {a}}).ok());
    ASSERT_TRUE(partial.Close().ok());
  }
  auto db = ReopenDb(Options());  // recovers state a only
  ASSERT_EQ(db->FindState("b"), nullptr);
  auto sb = db->CreateState("b");  // upgrade path: inline load
  ASSERT_TRUE(sb.ok());
  ASSERT_EQ((*sb)->id(), b);
  db->CreateGroup({a, b});
  ASSERT_TRUE(db->Recover().ok());  // must purge b's torn version
  EXPECT_EQ(ReadOne(*db, b, "k"), "good")
      << "torn commit must be purged, committed data kept";
  EXPECT_EQ(ReadOne(*db, a, "k"), "good");
  EXPECT_EQ(ReadOne(*db, b, "log_only"), "logged");
  EXPECT_EQ(ReadOne(*db, a, "log_only"), "logged");
  // The clock moved past everything recovered.
  EXPECT_GE(db->context().clock().Now(), torn_cts);
}

TEST_F(CheckpointTest, CheckpointBoundsLogFootprintUnderSustainedCommits) {
  StateId a, b;
  GroupId g;
  auto db = CreateDb(&a, &b, &g, Options());
  std::uint64_t max_footprint = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      CommitPair(*db, a, b, "k" + std::to_string(i),
                 "r" + std::to_string(round));
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->group_log()->SegmentCount(), 1u)
        << "old segments must be pruned";
    max_footprint =
        std::max(max_footprint, db->group_log()->TotalSizeBytes());
  }
  // Post-checkpoint the log holds one cut record (+ nothing else), however
  // many commits history accumulated before it.
  EXPECT_LT(db->group_log()->TotalSizeBytes(), 1024u);
  EXPECT_EQ(db->CheckpointCount(), 5u);
  EXPECT_EQ(ReadOne(*db, a, "k49"), "r4");
}

TEST_F(CheckpointTest, RecoversFromCheckpointPlusTail) {
  StateId a, b;
  GroupId g;
  Timestamp last_cts = 0;
  {
    auto db = CreateDb(&a, &b, &g, Options());
    for (int i = 0; i < 20; ++i) {
      CommitPair(*db, a, b, "pre" + std::to_string(i), "x");
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    // Post-checkpoint tail: commits after the cut live in the new segment.
    CommitPair(*db, a, b, "post", "tail");
    last_cts = db->context().LastCts(g);
  }
  // Replay must start from the checkpoint (one segment) and still see the
  // tail commit.
  GroupCommitLog::ReplayInfo info;
  auto replayed =
      GroupCommitLog::Replay(Options().base_dir + "/group_commits.log", &info);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.segments_present, 1u);

  auto db = ReopenDb(Options());
  EXPECT_EQ(db->context().LastCts(g), last_cts);
  EXPECT_EQ(ReadOne(*db, a, "post"), "tail");
  EXPECT_EQ(ReadOne(*db, b, "post"), "tail");
  EXPECT_EQ(ReadOne(*db, a, "pre0"), "x");
}

TEST_F(CheckpointTest, BackgroundCheckpointerRunsAndBoundsTheLog) {
  StateId a, b;
  GroupId g;
  auto options = Options();
  options.checkpoint_interval_ms = 5;
  auto db = CreateDb(&a, &b, &g, options);
  for (int i = 0; i < 50; ++i) {
    CommitPair(*db, a, b, "k" + std::to_string(i), "v");
  }
  for (int i = 0; i < 2000 && db->CheckpointCount() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(db->CheckpointCount(), 1u);
  EXPECT_LE(db->group_log()->SegmentCount(), 2u);
  EXPECT_EQ(ReadOne(*db, a, "k49"), "v");
}

TEST_F(CheckpointTest, CommitPathNeverFlushesInline) {
  // Commits write only the group-commit log: N commits leave every backend
  // untouched — no Put, hence nothing to seal, flush or compact. The
  // checkpoint then writes the images; with a tiny memtable they seal
  // constantly, and every flush and compaction must land on the LSM
  // background worker, never a foreground thread.
  StateId a, b;
  GroupId g;
  auto options = Options();
  options.backend_options.memtable_bytes = 4 * 1024;
  options.backend_options.l0_compaction_trigger = 2;
  auto db = CreateDb(&a, &b, &g, options);
  const std::string value(256, 'x');
  for (int i = 0; i < 200; ++i) {
    CommitPair(*db, a, b, "k" + std::to_string(i % 32), value);
  }
  for (StateId state : {a, b}) {
    auto* lsm = static_cast<LsmBackend*>(db->GetState(state)->backend());
    EXPECT_EQ(lsm->ApproximateCount(), 0u) << "a commit wrote the backend";
    EXPECT_EQ(lsm->FlushCount(), 0u);
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  for (StateId state : {a, b}) {
    auto* backend = db->GetState(state)->backend();
    ASSERT_EQ(backend->Name(), "lsm");
    auto* lsm = static_cast<LsmBackend*>(backend);
    EXPECT_GE(lsm->FlushCount(), 1u);
    EXPECT_EQ(lsm->FlushCount(), lsm->BackgroundFlushCount())
        << "a flush ran inline on a foreground thread";
    EXPECT_EQ(lsm->CompactionCount(), lsm->BackgroundCompactionCount())
        << "a compaction ran inline on a foreground thread";
  }
  EXPECT_EQ(ReadOne(*db, a, "k0"), value);
}

TEST(CheckpointImageTest, ImageExcludesACommitHeldInItsDurableRecord) {
  // A commit is installed in memory and registered in flight, then held
  // inside the sync of its durable record while a checkpoint takes its cut
  // and writes images: the cut is clamped below the commit and the image
  // must exclude its version. The record then fails (never synced), and
  // after a power cut and a reopen the commit is gone for good.
  //
  // Database::Checkpoint would first drain the held commit, so the pieces
  // a Database assembles are wired by hand here and the checkpoint's cut
  // and image steps run while the commit sits in its sync.
  FaultEnv fault_env(/*seed=*/11);
  testing::HoldingEnv env(&fault_env);
  const std::string dir = "/db";
  ASSERT_TRUE(env.CreateDirIfMissing(dir).ok());
  Timestamp good_cts = 0;
  {
    StateContext context;
    const StateId id = context.RegisterState("s");
    const GroupId group = context.RegisterGroup({id});
    BackendOptions backend_options;
    backend_options.sync_mode = SyncMode::kFsync;
    backend_options.env = &env;
    backend_options.path = dir + "/state_s";
    auto backend = OpenBackend(BackendType::kLsm, backend_options);
    ASSERT_TRUE(backend.ok());
    VersionedStore store(id, "s", std::move(backend).value(), StoreOptions());
    GroupCommitLog log(SyncMode::kFsync, 0, &env);
    ASSERT_TRUE(log.Open(dir + "/group_commits.log").ok());
    auto protocol = MakeProtocol(ProtocolType::kMvcc, &context);
    TransactionManager manager(
        &context, protocol.get(),
        [&](StateId state) { return state == id ? &store : nullptr; }, &log,
        /*durable_group_log=*/true);
    {
      auto t = manager.Begin();
      ASSERT_TRUE(manager.Write((*t)->txn(), id, "k", "good").ok());
      ASSERT_TRUE(manager.Commit((*t)->txn()).ok());
    }
    good_cts = context.LastCts(group);

    env.ArmHold();
    Status doomed;
    std::thread committer([&] {
      auto t = manager.Begin();
      ASSERT_TRUE(manager.Write((*t)->txn(), id, "k", "doomed").ok());
      doomed = manager.Commit((*t)->txn());
    });
    env.WaitHeld();
    std::vector<std::pair<GroupId, Timestamp>> cut;
    context.SnapshotCheckpointCut(&cut);
    ASSERT_EQ(cut.size(), 1u);
    const Timestamp ceiling = cut[0].second;
    EXPECT_GT(store.LatestModification("k"), ceiling)
        << "the held commit is installed above the cut";
    ASSERT_TRUE(store.WriteCheckpointImages(ceiling).ok());
    ASSERT_TRUE(store.backend()->Flush().ok());
    std::string blob;
    ASSERT_TRUE(store.backend()->Get("k", &blob).ok());
    const auto image = MvccObject::Decode(blob, 8);
    ASSERT_TRUE(image.ok());
    EXPECT_EQ(image->LatestModification(), good_cts)
        << "the image holds a commit that was still in flight";
    EXPECT_TRUE(image->HasLiveVersion());

    env.Release();
    committer.join();
    EXPECT_TRUE(doomed.IsIoError()) << doomed.ToString();
    (void)log.Close();
  }
  fault_env.CrashAndRecoverFs(FaultEnv::CrashMode::kDropUnsynced);

  // Reopen through the ordinary recovery path (a directory without a
  // catalog: the application re-declares its state).
  DatabaseOptions options;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  options.env = &fault_env;
  options.base_dir = dir;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto state = (*db)->CreateState("s");
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE((*db)->Recover().ok());
  auto t = (*db)->Begin();
  std::string value;
  ASSERT_TRUE(
      (*db)->txn_manager().Read((*t)->txn(), (*state)->id(), "k", &value).ok());
  EXPECT_EQ(value, "good");
  EXPECT_EQ((*state)->LatestModification("k"), good_cts);
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(CheckpointTest, ConcurrentCommittersNeverLoseAckedCommits) {
  // The drain step of the checkpoint protocol: a commit whose durable
  // record landed in a pre-rotation segment must be covered by the cut
  // before the old chain is deleted. Committers hammer one group while
  // checkpoints run continuously; every commit acked before the "crash"
  // must be visible after recovery, and the two grouped states must stay
  // identical throughout.
  StateId a, b;
  GroupId g;
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 60;
  std::vector<std::string> last_acked(kThreads);
  {
    auto options = Options();
    options.backend_options.sync_mode = SyncMode::kSimulated;
    options.backend_options.simulated_sync_micros = 50;
    auto db = CreateDb(&a, &b, &g, options);
    std::atomic<bool> stop{false};
    std::thread checkpointer([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    });
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto t = db->Begin();
        ASSERT_TRUE(t.ok());
        for (int w = 0; w < kThreads; ++w) {
          const std::string key = "w" + std::to_string(w);
          std::string va, vb;
          const Status sa =
              db->txn_manager().Read((*t)->txn(), a, key, &va);
          const Status sb =
              db->txn_manager().Read((*t)->txn(), b, key, &vb);
          ASSERT_EQ(sa.ok(), sb.ok()) << "states diverged mid-run";
          if (sa.ok()) ASSERT_EQ(va, vb) << "states diverged mid-run";
        }
        ASSERT_TRUE((*t)->Commit().ok());
      }
    });
    std::vector<std::thread> committers;
    for (int w = 0; w < kThreads; ++w) {
      committers.emplace_back([&, w] {
        const std::string key = "w" + std::to_string(w);
        for (int i = 0; i < kCommitsPerThread; ++i) {
          const std::string value = std::to_string(i);
          auto t = db->Begin();
          ASSERT_TRUE(t.ok());
          ASSERT_TRUE(
              db->txn_manager().Write((*t)->txn(), a, key, value).ok());
          ASSERT_TRUE(
              db->txn_manager().Write((*t)->txn(), b, key, value).ok());
          ASSERT_TRUE((*t)->Commit().ok());
          last_acked[static_cast<std::size_t>(w)] = value;
        }
      });
    }
    for (auto& thread : committers) thread.join();
    stop.store(true, std::memory_order_release);
    checkpointer.join();
    reader.join();
    // Crash: destructors, no clean shutdown protocol.
  }
  auto db = ReopenDb(Options());
  for (int w = 0; w < kThreads; ++w) {
    const std::string key = "w" + std::to_string(w);
    EXPECT_EQ(ReadOne(*db, a, key), last_acked[static_cast<std::size_t>(w)])
        << "acked commit lost across checkpoint + crash (state a, " << key
        << ")";
    EXPECT_EQ(ReadOne(*db, b, key), last_acked[static_cast<std::size_t>(w)])
        << "acked commit lost across checkpoint + crash (state b, " << key
        << ")";
  }
}

TEST_F(CheckpointTest, RolledSegmentsReplayOnReopenAndOnAFollower) {
  // 1 MiB values in both states: every commit logs ~2 MiB, so the log rolls
  // at its real segment size — once before the checkpoint and twice after.
  const std::string follower_dir = dir_.path() + "/follower";
  EnvFileTransport transport(Env::Default(), follower_dir);
  DatabaseOptions options = Options();
  options.replication.role = ReplicationRole::kPrimary;
  options.replication.transport = &transport;
  options.replication.manual_pump = true;
  const std::string blob(1 << 20, 'v');
  const auto value = [&](int i) { return blob + "#" + std::to_string(i); };
  constexpr int kKeys = 4;
  constexpr int kBeforeCheckpoint = 40;
  constexpr int kCommits = 110;
  const auto key = [](int i) { return "k" + std::to_string(i % kKeys); };
  // The newest value of each key has the index of its last writer.
  const auto expect_latest = [&](Database& db, StateId a, StateId b) {
    for (int i = kCommits - kKeys; i < kCommits; ++i) {
      EXPECT_TRUE(ReadOne(db, a, key(i)) == value(i)) << key(i);
      EXPECT_TRUE(ReadOne(db, b, key(i)) == value(i)) << key(i);
    }
  };

  StateId a = 0;
  StateId b = 0;
  GroupId g = 0;
  {
    auto db = CreateDb(&a, &b, &g, options);
    for (int i = 0; i < kBeforeCheckpoint; ++i) {
      CommitPair(*db, a, b, key(i), value(i));
    }
    EXPECT_EQ(db->group_log()->current_segment(), 1u);
    ASSERT_TRUE(db->ShipNow().ok());  // lets the checkpoint prune 0
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->group_log()->current_segment(), 2u);
    for (int i = kBeforeCheckpoint; i < kCommits; ++i) {
      CommitPair(*db, a, b, key(i), value(i));
    }
    EXPECT_EQ(db->group_log()->current_segment(), 4u);
    std::vector<std::uint64_t> live;
    db->group_log()->ListLiveSegments(&live);
    // 1 was the live segment at the last ship, so the replication slot
    // still holds it; 0 is gone.
    EXPECT_EQ(live, (std::vector<std::uint64_t>{1, 2, 3, 4}));
    ASSERT_TRUE(db->ShipNow().ok());

    // The follower applies the whole shipped chain, pruned segments
    // included: they shipped before the checkpoint deleted them.
    DatabaseOptions follower_options = Options();
    follower_options.base_dir = follower_dir;
    follower_options.replication.role = ReplicationRole::kFollower;
    follower_options.replication.manual_pump = true;
    auto follower = Database::Open(follower_options);
    ASSERT_TRUE(follower.ok()) << follower.status().ToString();
    ASSERT_TRUE((*follower)->ApplyShippedNow().ok());
    EXPECT_EQ((*follower)->Health().replication.staleness_lag, 0u);
    expect_latest(**follower, a, b);
  }

  // Reopen as a standalone database: recovery replays the three rolled
  // segments above the checkpoint cut.
  auto db = ReopenDb(Options());
  expect_latest(*db, a, b);
}

}  // namespace
}  // namespace streamsi
