// Failure injection: IO errors in the base table hit checkpoint image
// writes, never commits — a failed image write fails its checkpoint, leaves
// readers untouched and keeps the unwritten keys dirty for the next one —
// and a checkpoint failing at any of its fault points must leave the
// previous log-segment chain authoritative while commits keep flowing.

#include <gtest/gtest.h>

#include "core/streamsi.h"
#include "storage/faulty_backend.h"
#include "storage/hash_backend.h"
#include "tests/test_util.h"

namespace streamsi {
namespace {

/// Builds a context + store + manager wired to a FaultyBackend directly
/// (Database always constructs its own backends, so this harness assembles
/// the pieces by hand).
struct Harness {
  Harness() {
    auto faulty =
        std::make_unique<FaultyBackend>(std::make_unique<HashTableBackend>());
    backend = faulty.get();
    StoreOptions store_options;
    store = std::make_unique<VersionedStore>(0, "s", std::move(faulty),
                                             store_options);
    group = context.RegisterGroup({context.RegisterState("s")});
    protocol = MakeProtocol(ProtocolType::kMvcc, &context);
    manager = std::make_unique<TransactionManager>(
        &context, protocol.get(),
        [this](StateId id) { return id == 0 ? store.get() : nullptr; },
        nullptr, false);
  }

  StateContext context;
  FaultyBackend* backend;
  std::unique_ptr<VersionedStore> store;
  GroupId group;
  std::unique_ptr<ConcurrencyProtocol> protocol;
  std::unique_ptr<TransactionManager> manager;
};

/// Committed value of `key` as a store rebuilt from `backend`'s images
/// would see it ("" = absent).
std::string ImageValue(FaultyBackend* backend, const std::string& key) {
  std::string blob;
  if (!backend->Get(key, &blob).ok()) return "";
  auto object = MvccObject::Decode(blob, 8);
  EXPECT_TRUE(object.ok());
  std::string value;
  return object->GetVisible(kInfinityTs - 1, &value) ? value : "";
}

TEST(FailureInjectionTest, BackendWriteFailuresNeverReachTheCommitPath) {
  Harness h;
  // The commit path writes only memory and the log: an armed backend fault
  // is never consumed by a commit.
  h.backend->FailNextWrites(1);
  {
    auto t = h.manager->Begin();
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, "k", "good").ok());
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }
  EXPECT_EQ(h.backend->injected_failures(), 0u);

  // The checkpoint image write consumes it and fails; readers are
  // untouched, and the key stays dirty so the retry writes its image.
  const Timestamp cut = h.context.LastCts(h.group);
  EXPECT_TRUE(h.store->WriteCheckpointImages(cut).IsIoError());
  EXPECT_EQ(h.backend->injected_failures(), 1u);
  {
    auto t = h.manager->Begin();
    std::string value;
    ASSERT_TRUE(h.manager->Read((*t)->txn(), 0, "k", &value).ok());
    EXPECT_EQ(value, "good");
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }
  ASSERT_TRUE(h.store->WriteCheckpointImages(cut).ok());
  EXPECT_EQ(ImageValue(h.backend, "k"), "good");
}

TEST(FailureInjectionTest, ImageWriteFailureMidStoreLeavesTheRestDirty) {
  Harness h;
  {
    auto t = h.manager->Begin();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(h.manager
                      ->Write((*t)->txn(), 0, "k" + std::to_string(i),
                              "base")
                      .ok());
    }
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }
  const Timestamp cut = h.context.LastCts(h.group);
  // Fail the first image write: that key and every key after it keep
  // their dirty marks, so the next checkpoint writes all of them.
  h.backend->FailNextWrites(1);
  EXPECT_FALSE(h.store->WriteCheckpointImages(cut).ok());
  ASSERT_TRUE(h.store->WriteCheckpointImages(cut).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ImageValue(h.backend, "k" + std::to_string(i)), "base")
        << "key " << i << " lost its image";
  }
}

TEST(FailureInjectionTest, SystemRecoversAfterFailuresClear) {
  Harness h;
  h.backend->FailNextWrites(3);
  int failures = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    auto t = h.manager->Begin();
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, "k", "v" +
                                 std::to_string(attempt)).ok());
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
    // A checkpoint after every commit: the first three fail on the image
    // write, the rest succeed.
    if (!h.store->WriteCheckpointImages(h.context.LastCts(h.group)).ok()) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(h.backend->injected_failures(), 3u);
  EXPECT_EQ(ImageValue(h.backend, "k"), "v9");
  auto t = h.manager->Begin();
  std::string value;
  ASSERT_TRUE(h.manager->Read((*t)->txn(), 0, "k", &value).ok());
  EXPECT_EQ(value, "v9");
  ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
}

TEST(FailureInjectionTest, FailedCheckpointsNeverInterruptCommitTraffic) {
  // Every checkpoint fault point fires mid-traffic; each failed checkpoint
  // must leave the database fully writable and every acked commit
  // recoverable from the surviving chain.
  testing::TempDir dir;
  DatabaseOptions options;
  options.protocol = ProtocolType::kMvcc;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  options.base_dir = dir.path() + "/db";
  StateId state;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    state = (*(*db)->CreateState("s"))->id();
    ASSERT_TRUE((*db)->Recover().ok());

    const GroupCommitLog::CheckpointFault faults[] = {
        GroupCommitLog::CheckpointFault::kBeforeRotate,
        GroupCommitLog::CheckpointFault::kBeforeCheckpointRecord,
        GroupCommitLog::CheckpointFault::kBeforePrune,
    };
    int i = 0;
    for (const auto fault : faults) {
      auto t = (*db)->Begin();
      ASSERT_TRUE((*db)
                      ->txn_manager()
                      .Write((*t)->txn(), state, "k" + std::to_string(i),
                             "v" + std::to_string(i))
                      .ok());
      ASSERT_TRUE((*t)->Commit().ok());
      (*db)->group_log()->InjectCheckpointFault(fault);
      EXPECT_FALSE((*db)->Checkpoint().ok());
      ++i;
    }
    // A clean checkpoint after the faults truncates everything.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->group_log()->SegmentCount(), 1u);
  }
  auto db = Database::Open(options);  // catalog reopens the state
  ASSERT_TRUE(db.ok());
  auto t = (*db)->Begin();
  for (int i = 0; i < 3; ++i) {
    std::string value;
    ASSERT_TRUE((*db)
                    ->txn_manager()
                    .Read((*t)->txn(), state, "k" + std::to_string(i),
                          &value)
                    .ok());
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  ASSERT_TRUE((*t)->Commit().ok());
}

}  // namespace
}  // namespace streamsi
