// Persistence & recoverability (§4 requirements): committed results survive
// restart; states always come back mutually consistent, even when a crash
// interrupts a multi-state group commit.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/streamsi.h"
#include "tests/test_util.h"

namespace streamsi {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.protocol = ProtocolType::kMvcc;
    options.backend = BackendType::kLsm;
    options.backend_options.sync_mode = SyncMode::kFsync;
    options.base_dir = dir_.path() + "/db";
    return options;
  }

  /// Opens the database and re-declares the schema (two states, one group).
  std::unique_ptr<Database> OpenDb(StateId* a, StateId* b, GroupId* g) {
    auto db = Database::Open(Options());
    EXPECT_TRUE(db.ok());
    auto sa = (*db)->CreateState("a");
    auto sb = (*db)->CreateState("b");
    EXPECT_TRUE(sa.ok());
    EXPECT_TRUE(sb.ok());
    *a = (*sa)->id();
    *b = (*sb)->id();
    *g = (*db)->CreateGroup({*a, *b});
    EXPECT_TRUE((*db)->Recover().ok());
    return std::move(db).value();
  }

  testing::TempDir dir_;
};

TEST_F(RecoveryTest, CommittedDataSurvivesRestart) {
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "va").ok());
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), b, "k", "vb").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).ok());
  EXPECT_EQ(value, "va");
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), b, "k", &value).ok());
  EXPECT_EQ(value, "vb");
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, AbortedDataDoesNotSurvive) {
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "doomed").ok());
    ASSERT_TRUE((*t)->Abort().ok());
  }
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  EXPECT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).IsNotFound());
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, DeletesSurviveRestart) {
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "v").ok());
    ASSERT_TRUE((*t)->Commit().ok());
    auto t2 = db->Begin();
    ASSERT_TRUE(db->txn_manager().Delete((*t2)->txn(), a, "k").ok());
    ASSERT_TRUE((*t2)->Commit().ok());
  }
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  EXPECT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).IsNotFound());
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, ClockAdvancesPastRecoveredCommits) {
  StateId a, b;
  GroupId g;
  Timestamp committed_at = 0;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "v").ok());
    ASSERT_TRUE((*t)->Commit().ok());
    committed_at = db->context().LastCts(g);
  }
  auto db = OpenDb(&a, &b, &g);
  EXPECT_GE(db->context().clock().Now(), committed_at);
  // New commits must get fresh timestamps beyond everything on disk.
  auto t = db->Begin();
  EXPECT_GT((*t)->id(), committed_at);
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, GrownVersionArraySurvivesRestart) {
  StateId a, b;
  GroupId g;
  constexpr int kOverwrites = 20;  // > default mvcc_slots (4): forces growth
  std::vector<Timestamp> commit_cts;
  {
    auto db = OpenDb(&a, &b, &g);
    // Lagging reader: holds a snapshot pin across every overwrite, so
    // on-demand GC can reclaim nothing and the hot key's version array must
    // grow (4 -> 8 -> 16 -> 32) to absorb the churn.
    auto reader = db->Begin();
    std::string ignored;
    ASSERT_TRUE(db->txn_manager()
                    .Read((*reader)->txn(), a, "hot", &ignored)
                    .IsNotFound());  // pins the snapshot
    for (int i = 0; i < kOverwrites; ++i) {
      auto t = db->Begin();
      ASSERT_TRUE(db->txn_manager()
                      .Write((*t)->txn(), a, "hot", "v" + std::to_string(i))
                      .ok());
      ASSERT_TRUE((*t)->Commit().ok()) << "overwrite " << i;
      commit_cts.push_back(db->context().LastCts(g));
    }
    ASSERT_TRUE((*reader)->Commit().ok());
    // The checkpoint image must carry the grown array.
    ASSERT_TRUE(db->Checkpoint().ok());
    std::string blob;
    ASSERT_TRUE(db->GetState(a)->backend()->Get("hot", &blob).ok());
    auto object = MvccObject::Decode(blob, 8);
    ASSERT_TRUE(object.ok());
    EXPECT_GT(object->capacity(), 8);
    EXPECT_EQ(object->VersionCount(), kOverwrites);
  }

  // Restart: recovery reloads the image from the backend — Decode must
  // size from the blob (not the configured mvcc_slots default) or the grown
  // object would fail recovery.
  auto db = OpenDb(&a, &b, &g);
  VersionedStore* store = db->GetState(a);
  ASSERT_NE(store, nullptr);
  std::string value;
  // Every version of the grown history is back and time-travel works.
  for (int i = 0; i < kOverwrites; ++i) {
    ASSERT_TRUE(store->ReadCommitted(commit_cts[static_cast<std::size_t>(i)],
                                     "hot", &value)
                    .ok())
        << "version " << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  // PurgeVersionsAfter still works on the recovered grown array (the
  // recovery rollback path).
  const Timestamp mid = commit_cts[9];
  EXPECT_EQ(store->PurgeVersionsAfter(mid),
            static_cast<std::uint64_t>(kOverwrites - 10));
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "hot", &value).ok());
  EXPECT_EQ(value, "v9");  // reopened as the live version
}

TEST_F(RecoveryTest, UnfinishedGroupCommitIsPurged) {
  // Simulate the torn middle of a group commit: state a's data is durable
  // but the group commit record was never written (crash before phase 3).
  StateId a, b;
  GroupId g;
  Timestamp watermark_before = 0;
  {
    auto db = OpenDb(&a, &b, &g);
    // One complete transaction as the baseline.
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "good").ok());
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), b, "k", "good").ok());
    ASSERT_TRUE((*t)->Commit().ok());
    watermark_before = db->context().LastCts(g);

    // Now the torn commit: state a's version is installed and its blob
    // written, but the group record never was.
    VersionedStore* store_a = db->GetState(a);
    const Timestamp torn_cts = db->context().clock().Next();
    ASSERT_TRUE(store_a
                    ->ApplyCommitted(EncodeToString(std::string("k")),
                                     "torn", false, torn_cts,
                                     /*oldest_active=*/0)
                    .ok());
    // In the backend, the way directories from before commits carried
    // their write sets hold it: blobs written through at apply time.
    ASSERT_TRUE(store_a->WriteCheckpointImages(kInfinityTs).ok());
  }
  auto db = OpenDb(&a, &b, &g);
  EXPECT_EQ(db->context().LastCts(g), watermark_before);
  auto t = db->Begin();
  std::string value;
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).ok());
  EXPECT_EQ(value, "good") << "torn version must be purged on recovery";
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), b, "k", &value).ok());
  EXPECT_EQ(value, "good");
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, PurgedTornCommitNeverResurrectsInLaterLives) {
  // The recovery purge must reach the backend: a torn version dropped only
  // in memory stays in the persisted blob, and once a checkpoint cut
  // covers its timestamp, the NEXT recovery would keep it — a
  // never-committed write resurrecting as committed. The purge marks the
  // key for a new image at that checkpoint.
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "good").ok());
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), b, "k", "good").ok());
    ASSERT_TRUE((*t)->Commit().ok());
    // Torn commit on "k": version persisted, no group record.
    VersionedStore* store_a = db->GetState(a);
    const Timestamp torn_cts = db->context().clock().Next();
    ASSERT_TRUE(store_a
                    ->ApplyCommitted(EncodeToString(std::string("k")),
                                     "torn", false, torn_cts,
                                     /*oldest_active=*/0)
                    .ok());
    // In the backend, the way directories from before commits carried
    // their write sets hold it: blobs written through at apply time.
    ASSERT_TRUE(store_a->WriteCheckpointImages(kInfinityTs).ok());
  }
  {
    // Life 2: recovery purges the torn version; commits to OTHER keys push
    // LastCTS far past the torn timestamp.
    auto db = OpenDb(&a, &b, &g);
    for (int i = 0; i < 10; ++i) {
      auto t = db->Begin();
      ASSERT_TRUE(db->txn_manager()
                      .Write((*t)->txn(), a, "other" + std::to_string(i),
                             "x")
                      .ok());
      ASSERT_TRUE((*t)->Commit().ok());
    }
    std::string value;
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).ok());
    EXPECT_EQ(value, "good");
    ASSERT_TRUE((*t)->Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Life 3: the torn version's timestamp is now below the checkpoint cut —
  // it must STILL be gone (the life-2 purge re-imaged the key).
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).ok());
  EXPECT_EQ(value, "good") << "purged torn commit resurrected";
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, ManyTransactionsSurvive) {
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    for (int i = 0; i < 200; ++i) {
      auto t = db->Begin();
      ASSERT_TRUE(db->txn_manager()
                      .Write((*t)->txn(), a, "k" + std::to_string(i),
                             std::to_string(i))
                      .ok());
      ASSERT_TRUE(db->txn_manager()
                      .Write((*t)->txn(), b, "k" + std::to_string(i),
                             std::to_string(i * 2))
                      .ok());
      ASSERT_TRUE((*t)->Commit().ok());
    }
  }
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k199", &value).ok());
  EXPECT_EQ(value, "199");
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), b, "k199", &value).ok());
  EXPECT_EQ(value, "398");
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, CrashBeforeRotateKeepsOldChainAuthoritative) {
  // Fault point 1: the checkpoint dies before its first step, the log
  // rotation. Nothing was cut, nothing was deleted — recovery replays the
  // old chain and every acked commit survives.
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "v").ok());
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), b, "k", "v").ok());
    ASSERT_TRUE((*t)->Commit().ok());
    db->group_log()->InjectCheckpointFault(
        GroupCommitLog::CheckpointFault::kBeforeRotate);
    EXPECT_FALSE(db->Checkpoint().ok());
    EXPECT_EQ(db->CheckpointCount(), 0u);
  }
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, CrashBeforeCheckpointRecordKeepsOldChainAuthoritative) {
  // Fault point 2: rotated, but the cut record never lands. The new
  // segment has no checkpoint, so replay walks back across the whole
  // chain; commits before AND after the failed checkpoint survive.
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "pre", "1").ok());
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), b, "pre", "1").ok());
    ASSERT_TRUE((*t)->Commit().ok());
    db->group_log()->InjectCheckpointFault(
        GroupCommitLog::CheckpointFault::kBeforeCheckpointRecord);
    EXPECT_FALSE(db->Checkpoint().ok());
    // The system keeps committing into the rotated segment.
    auto t2 = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t2)->txn(), a, "post", "2").ok());
    ASSERT_TRUE(db->txn_manager().Write((*t2)->txn(), b, "post", "2").ok());
    ASSERT_TRUE((*t2)->Commit().ok());
  }
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "pre", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), b, "post", &value).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, ImagesAheadOfTheDurableCutReplayWithoutDuplicates) {
  // The window between the backends' Flush() and the cut record: the new
  // images are durable, the cut that covers them is not. Recovery starts
  // from the previous cut and replays records whose versions the images
  // already hold — each version must come back exactly once, none lost.
  StateId a, b;
  GroupId g;
  std::vector<Timestamp> cts;
  const auto commit = [&](Database& db, const std::string& key,
                          const std::string& value) {
    auto t = db.Begin();
    ASSERT_TRUE(db.txn_manager().Write((*t)->txn(), a, key, value).ok());
    ASSERT_TRUE(db.txn_manager().Write((*t)->txn(), b, key, value).ok());
    ASSERT_TRUE((*t)->Commit().ok());
    cts.push_back(db.context().LastCts(g));
  };
  {
    auto db = OpenDb(&a, &b, &g);
    commit(*db, "k", "v1");
    commit(*db, "k", "v2");
    commit(*db, "other", "x");
    db->group_log()->InjectCheckpointFault(
        GroupCommitLog::CheckpointFault::kBeforeCheckpointRecord);
    EXPECT_FALSE(db->Checkpoint().ok());
    // The images holding v1, v2 and x are flushed; the cut is not durable.
    std::string blob;
    ASSERT_TRUE(db->GetState(a)->backend()->Get("k", &blob).ok());
    commit(*db, "k", "v3");
  }
  auto db = OpenDb(&a, &b, &g);
  for (StateId state : {a, b}) {
    VersionedStore* store = db->GetState(state);
    std::string value;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(store->ReadCommitted(cts[static_cast<std::size_t>(i)], "k",
                                       &value)
                      .ok());
      EXPECT_EQ(value, "v" + std::to_string(i + 1));
    }
    ASSERT_TRUE(store->ReadCommitted(cts[3], "k", &value).ok());
    EXPECT_EQ(value, "v3");
    ASSERT_TRUE(store->ReadCommitted(cts[3], "other", &value).ok());
    EXPECT_EQ(value, "x");
  }
  // The next image shows each version once: one slot per commit timestamp.
  ASSERT_TRUE(db->Checkpoint().ok());
  std::string blob;
  ASSERT_TRUE(db->GetState(a)->backend()->Get("k", &blob).ok());
  const auto image = MvccObject::Decode(blob, 8);
  ASSERT_TRUE(image.ok());
  std::vector<Timestamp> seen;
  for (const VersionHeader& header : image->Headers()) seen.push_back(header.cts);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<Timestamp>{cts[0], cts[1], cts[3]}));
}

TEST_F(RecoveryTest, MixedEraDirectoryReopensWithTheSameContents) {
  // A directory written the way commits worked before they carried their
  // write sets: each commit put its keys' whole version arrays into the
  // backend and logged a data-less kGroupCommit record. It must reopen with
  // the same contents — a torn version in a blob purged as before — and
  // keep them across new data-carrying commits, a restart and a checkpoint.
  StateId a, b;
  GroupId g;
  std::vector<GroupId> groups_a;
  std::vector<GroupId> groups_ab;
  {
    auto db = OpenDb(&a, &b, &g);  // declares the catalog, commits nothing
    groups_a = db->context().GroupsOf(a);
    groups_ab = groups_a;
    for (GroupId group : db->context().GroupsOf(b)) {
      if (std::find(groups_ab.begin(), groups_ab.end(), group) ==
          groups_ab.end()) {
        groups_ab.push_back(group);
      }
    }
  }
  {
    const auto blob =
        [](std::initializer_list<std::pair<Timestamp, const char*>> versions) {
          MvccObject object(8);
          for (const auto& [cts, value] : versions) {
            EXPECT_TRUE(object.Install(value, cts, kInitialTs).ok());
          }
          std::string out;
          object.EncodeTo(&out);
          return out;
        };
    BackendOptions backend_options = Options().backend_options;
    backend_options.path = Options().base_dir + "/state_a";
    auto backend_a = OpenBackend(BackendType::kLsm, backend_options);
    backend_options.path = Options().base_dir + "/state_b";
    auto backend_b = OpenBackend(BackendType::kLsm, backend_options);
    ASSERT_TRUE(backend_a.ok() && backend_b.ok());
    // cts 10 wrote k on a and b; cts 20 wrote k2 on a; cts 30 overwrote k
    // on a but died before its record (torn).
    ASSERT_TRUE((*backend_a)
                    ->Put("k",
                          blob({{10, "old"}, {30, "torn"}}),
                          true)
                    .ok());
    ASSERT_TRUE((*backend_b)->Put("k", blob({{10, "old"}}), true).ok());
    ASSERT_TRUE((*backend_a)->Put("k2", blob({{20, "old2"}}), true).ok());
    GroupCommitLog log(SyncMode::kFsync, 0);
    ASSERT_TRUE(log.Open(Options().base_dir + "/group_commits.log").ok());
    ASSERT_TRUE(
        log.RecordCommit(groups_ab.data(), groups_ab.size(), 10, true).ok());
    ASSERT_TRUE(
        log.RecordCommit(groups_a.data(), groups_a.size(), 20, true).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  const auto expect_contents = [&](Database& db, bool with_new) {
    auto t = db.Begin();
    std::string value;
    ASSERT_TRUE(db.txn_manager().Read((*t)->txn(), a, "k", &value).ok());
    EXPECT_EQ(value, "old") << "torn version must be purged";
    ASSERT_TRUE(db.txn_manager().Read((*t)->txn(), b, "k", &value).ok());
    EXPECT_EQ(value, "old");
    ASSERT_TRUE(db.txn_manager().Read((*t)->txn(), a, "k2", &value).ok());
    EXPECT_EQ(value, "old2");
    if (with_new) {
      ASSERT_TRUE(db.txn_manager().Read((*t)->txn(), a, "k3", &value).ok());
      EXPECT_EQ(value, "new");
      ASSERT_TRUE(db.txn_manager().Read((*t)->txn(), b, "k", &value).ok());
    }
    ASSERT_TRUE((*t)->Commit().ok());
  };
  {
    auto db = OpenDb(&a, &b, &g);
    expect_contents(*db, false);
    // New commits land above everything the old blobs hold, torn included.
    EXPECT_GT(db->context().clock().Now(), 30u);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k3", "new").ok());
    ASSERT_TRUE((*t)->Commit().ok());
    expect_contents(*db, true);
  }
  {
    auto db = OpenDb(&a, &b, &g);  // old blobs + a data-carrying log tail
    expect_contents(*db, true);
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = OpenDb(&a, &b, &g);  // images only
  expect_contents(*db, true);
}

TEST_F(RecoveryTest, CrashBeforePruneLosesNothingAndRetriesLater) {
  // Fault point 3: the cut is durable but the old segments were never
  // deleted. Replay starts at the checkpoint; the stale chain merely
  // costs disk until the next checkpoint prunes it.
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "v").ok());
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), b, "k", "v").ok());
    ASSERT_TRUE((*t)->Commit().ok());
    db->group_log()->InjectCheckpointFault(
        GroupCommitLog::CheckpointFault::kBeforePrune);
    EXPECT_FALSE(db->Checkpoint().ok());
    EXPECT_EQ(db->group_log()->SegmentCount(), 2u);  // stale chain remains
  }
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    std::string value;
    ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).ok());
    EXPECT_EQ(value, "v");
    ASSERT_TRUE((*t)->Commit().ok());
    // The next checkpoint retries the truncation and succeeds.
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->group_log()->SegmentCount(), 1u);
  }
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, CheckpointBeforeRecoveryIsRefused) {
  // A pre-catalog directory recovers only when the app re-declares its
  // schema and calls Recover(). A checkpoint before that (manual or the
  // background thread's first tick) would cut an empty/stale LastCTS
  // snapshot and DELETE the segments recovery still needs — it must be
  // refused, not applied.
  StateId a, b;
  GroupId g;
  {
    auto db = OpenDb(&a, &b, &g);
    auto t = db->Begin();
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), a, "k", "v").ok());
    ASSERT_TRUE(db->txn_manager().Write((*t)->txn(), b, "k", "v").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  // Simulate a legacy (pre-catalog) directory.
  ASSERT_TRUE(fsutil::RemoveFile(Options().base_dir + "/catalog.log").ok());
  {
    auto db = Database::Open(Options());
    ASSERT_TRUE(db.ok());
    const Status premature = (*db)->Checkpoint();
    EXPECT_TRUE(premature.IsBusy()) << premature.ToString();
    EXPECT_EQ((*db)->CheckpointCount(), 0u);
    // Declare + recover, then checkpoints work.
    ASSERT_TRUE((*db)->CreateState("a").ok());
    ASSERT_TRUE((*db)->CreateState("b").ok());
    (*db)->CreateGroup({a, b});
    ASSERT_TRUE((*db)->Recover().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = OpenDb(&a, &b, &g);
  auto t = db->Begin();
  std::string value;
  ASSERT_TRUE(db->txn_manager().Read((*t)->txn(), a, "k", &value).ok());
  EXPECT_EQ(value, "v") << "premature checkpoint must not lose commits";
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST_F(RecoveryTest, VolatileDatabaseRecoverIsNoop) {
  DatabaseOptions options;  // no base_dir
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateState("s").ok());
  EXPECT_TRUE((*db)->Recover().ok());
}

}  // namespace
}  // namespace streamsi
