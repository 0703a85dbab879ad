// One read rule: a read happens at a pinned, published, clamped cut, or
// under a lock the writer holds until after it publishes. No protocol may
// return a version that was installed but not yet published — the commit
// that installed it can still abort, and a read of it is a dirty read of an
// aborted transaction (G1a, Adya et al., ICDE 2000).
//
// Each repro holds a writer X between the install of its versions and its
// publication, lets a reader run, and then lets X abort (or commit), and
// checks that the reader saw only published data.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/streamsi.h"
#include "tests/test_util.h"

namespace streamsi {
namespace {

class ReadRuleTest : public ::testing::Test {
 protected:
  void Open(ProtocolType protocol, StoreOptions store_options = {}) {
    DatabaseOptions options;
    options.protocol = protocol;
    options.backend = BackendType::kLsm;
    options.backend_options.sync_mode = SyncMode::kFsync;
    options.store_options = store_options;
    options.env = &env_;
    options.base_dir = dir_.path() + "/db";
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    auto state = db_->CreateState("s");
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    sid_ = (*state)->id();
  }

  TransactionManager& tm() { return db_->txn_manager(); }

  void Commit(const std::string& key, const std::string& value) {
    auto t = db_->Begin();
    ASSERT_TRUE(tm().Write((*t)->txn(), sid_, key, value).ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }

  /// A fresh snapshot read of `key` ("<missing>" when absent).
  std::string ReadFresh(const std::string& key) {
    auto t = db_->Begin();
    std::string value;
    const Status status = tm().Read((*t)->txn(), sid_, key, &value);
    EXPECT_TRUE((*t)->Commit().ok());
    return status.ok() ? value : "<missing>";
  }

  /// Starts a writer of key=value on its own thread and returns once its
  /// versions are installed and it sits inside the sync of its durable
  /// record. `result` receives the commit status after Release.
  std::thread StartHeldWriter(const std::string& key, const std::string& value,
                              Status* result) {
    env_.ArmHold();
    std::thread writer([this, key, value, result] {
      auto t = db_->Begin();
      ASSERT_TRUE(tm().Write((*t)->txn(), sid_, key, value).ok());
      *result = (*t)->Commit();
    });
    env_.WaitHeld();
    return writer;
  }

  testing::TempDir dir_;
  testing::HoldingEnv env_{Env::Default()};
  std::unique_ptr<Database> db_;
  StateId sid_ = kInvalidStateId;
};

// Case (i): a BOCC read-only transaction read the installed value of X,
// which then aborted, and its commit returned OK.
TEST_F(ReadRuleTest, BoccReadNeverSeesACommitThatThenAborts) {
  Open(ProtocolType::kBocc);
  Commit("k", "old");
  Status doomed;
  std::thread writer = StartHeldWriter("k", "dirty", &doomed);

  auto reader = db_->Begin();
  std::string value;
  ASSERT_TRUE(tm().Read((*reader)->txn(), sid_, "k", &value).ok());
  env_.Release();  // X's durable record fails: X aborts
  writer.join();
  EXPECT_TRUE(doomed.IsIoError()) << doomed.ToString();
  EXPECT_EQ(value, "old") << "BOCC read a commit that then aborted";
  EXPECT_TRUE((*reader)->Commit().ok());
}

// Case (ii): the same, for an SI transaction at read-committed.
TEST_F(ReadRuleTest, ReadCommittedReadNeverSeesACommitThatThenAborts) {
  Open(ProtocolType::kMvcc);
  Commit("k", "old");
  Status doomed;
  std::thread writer = StartHeldWriter("k", "dirty", &doomed);

  auto reader = db_->Begin();
  (*reader)->txn().set_isolation(IsolationLevel::kReadCommitted);
  std::string value;
  ASSERT_TRUE(tm().Read((*reader)->txn(), sid_, "k", &value).ok());
  env_.Release();
  writer.join();
  EXPECT_TRUE(doomed.IsIoError()) << doomed.ToString();
  EXPECT_EQ(value, "old") << "read-committed read a commit that then aborted";
  EXPECT_TRUE((*reader)->Commit().ok());
}

// Case (iii): no fault at all. X installs `fresh`, then stalls installing
// k behind a pinned snapshot until its version-wait budget runs out, and
// purges. A read-committed reader that copies `fresh` meanwhile must not
// make X's aborted value durable.
TEST_F(ReadRuleTest, ReadCommittedCopyOfAPurgedInstallNeverCommits) {
  StoreOptions store_options;
  store_options.mvcc_slots = 2;
  store_options.mvcc_slots_max = 2;
  store_options.version_wait_micros = 300'000;
  Open(ProtocolType::kMvcc, store_options);
  VersionedStore* store = db_->GetState(sid_);
  Commit("k", "v1");
  auto pinner = db_->Begin();  // pins the version holding v1
  std::string value;
  ASSERT_TRUE(tm().Read((*pinner)->txn(), sid_, "k", &value).ok());
  Commit("k", "v2");  // k's version array is now full and v1 is pinned

  Status doomed;
  std::thread writer([&] {
    auto t = db_->Begin();
    ASSERT_TRUE(tm().Write((*t)->txn(), sid_, "fresh", "aborted").ok());
    ASSERT_TRUE(tm().Write((*t)->txn(), sid_, "k", "v3").ok());
    doomed = (*t)->Commit();
  });
  while (store->stats().version_wait_stalls.load() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // X has installed `fresh` and waits on k.
  Status copied = Status::NotFound("no read");
  {
    auto reader = db_->Begin();
    (*reader)->txn().set_isolation(IsolationLevel::kReadCommitted);
    std::string fresh;
    if (tm().Read((*reader)->txn(), sid_, "fresh", &fresh).ok()) {
      ASSERT_TRUE(tm().Write((*reader)->txn(), sid_, "copy", fresh).ok());
    }
    copied = (*reader)->Commit();
  }
  writer.join();
  EXPECT_TRUE(doomed.IsResourceExhausted()) << doomed.ToString();
  EXPECT_TRUE(copied.ok()) << copied.ToString();
  ASSERT_TRUE((*pinner)->Commit().ok());
  EXPECT_EQ(ReadFresh("fresh"), "<missing>");
  EXPECT_EQ(ReadFresh("copy"), "<missing>")
      << "a purged install was copied into a durable commit";
  EXPECT_EQ(db_->Health().state, DatabaseHealth::kHealthy);
}

/// Starts a scan of the state in `txn` on its own thread; `seen` receives
/// what the scan delivered for `key`. Begin `txn` before the writer, so
/// the scanner is the OLDER one and waits on its locks under wait-die.
std::thread StartScan(TransactionManager& tm, Transaction& txn, StateId sid,
                      const std::string& key, std::string* seen,
                      Status* status) {
  return std::thread([&tm, &txn, sid, key, seen, status] {
    *status = tm.Scan(txn, sid, [&](std::string_view k, std::string_view v) {
      if (k == key) seen->assign(v.data(), v.size());
      return true;
    });
  });
}

/// Waits until a scan has started on `store`, then gives it time to reach
/// the lock it blocks on.
void WaitScanBlocked(const VersionedStore& store, std::uint64_t scans_before) {
  while (store.stats().scans.load() == scans_before) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// Case (iv): an S2PL scanner older than X waits on X's exclusive lock; X
// aborts after installing; the scanner must not deliver X's value.
TEST_F(ReadRuleTest, S2plScanNeverDeliversAnAbortedValue) {
  Open(ProtocolType::kS2pl);
  const VersionedStore& store = *db_->GetState(sid_);
  Commit("k", "old");
  auto scanner = db_->Begin();  // older than X
  Status doomed;
  std::thread writer = StartHeldWriter("k", "dirty", &doomed);

  const std::uint64_t scans_before = store.stats().scans.load();
  std::string seen;
  Status scanned;
  std::thread scan =
      StartScan(tm(), (*scanner)->txn(), sid_, "k", &seen, &scanned);
  WaitScanBlocked(store, scans_before);
  env_.Release();  // X aborts and releases its lock
  writer.join();
  scan.join();
  EXPECT_TRUE(doomed.IsIoError()) << doomed.ToString();
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(seen, "old") << "S2PL scan delivered an aborted value";
  EXPECT_TRUE((*scanner)->Commit().ok());
}

// Variant of (iv): the scanner waited on the lock of a writer that then
// COMMITTED; under 2PL the scan must return the committed value, not the
// one it saw before it took the lock.
TEST_F(ReadRuleTest, S2plScanThatWaitedReturnsTheLockHoldersCommit) {
  Open(ProtocolType::kS2pl);
  const VersionedStore& store = *db_->GetState(sid_);
  Commit("k", "old");
  auto scanner = db_->Begin();  // older than X
  auto writer = db_->Begin();
  ASSERT_TRUE(tm().Write((*writer)->txn(), sid_, "k", "new").ok());

  const std::uint64_t scans_before = store.stats().scans.load();
  std::string seen;
  Status scanned;
  std::thread scan =
      StartScan(tm(), (*scanner)->txn(), sid_, "k", &seen, &scanned);
  WaitScanBlocked(store, scans_before);
  ASSERT_TRUE((*writer)->Commit().ok());
  scan.join();
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(seen, "new") << "S2PL scan returned a value older than a commit "
                            "that finished while it waited on the lock";
  EXPECT_TRUE((*scanner)->Commit().ok());
}

// BOCC validates by commit timestamp against the reader's snapshot: X
// drew its cts BEFORE the reader began, but was still unpublished when the
// reader pinned, so the reader read below X. X then commits; the reader,
// which read a key X wrote, must abort even though X's cts < its BOT.
TEST_F(ReadRuleTest, BoccReaderBelowACommitAbortsEvenIfItsCtsPrecedesBot) {
  Open(ProtocolType::kBocc);
  Commit("k", "old");
  Status committed;
  std::thread writer = StartHeldWriter("k", "new", &committed);

  auto reader = db_->Begin();
  std::string value;
  ASSERT_TRUE(tm().Read((*reader)->txn(), sid_, "k", &value).ok());
  EXPECT_EQ(value, "old");
  env_.Release(/*fail_sync=*/false);
  writer.join();
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  const GroupId group = db_->context().GroupsOf(sid_).at(0);
  ASSERT_LT(db_->context().LastCts(group), (*reader)->txn().id())
      << "X's cts must precede the reader's BOT for this case";
  ASSERT_TRUE(tm().Write((*reader)->txn(), sid_, "other", "x").ok());
  const Status status = (*reader)->Commit();
  EXPECT_TRUE(status.IsAborted()) << status.ToString();
}

// A read-committed read issued from inside a read-committed scan's
// callback must not raise the pins the scan still reads at. Here the
// callback reads, then a writer commits the not-yet-visited key twice: its
// full two-slot array may reclaim only versions below every pin, and the
// scan must still find the version its cut sees.
TEST(ReadCommittedNestingTest, ReadInsideAScanKeepsTheScansCut) {
  DatabaseOptions options;
  options.store_options.mvcc_slots = 2;
  options.store_options.mvcc_slots_max = 2;
  options.store_options.version_wait_micros = 1000;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto state = (*db)->CreateState("s");
  ASSERT_TRUE(state.ok());
  const StateId sid = (*state)->id();
  TransactionManager& tm = (*db)->txn_manager();
  const auto commit = [&](const std::string& key, const std::string& value) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(tm.Write((*t)->txn(), sid, key, value).ok());
    (void)(*t)->Commit();  // the last write may time out on a full array
  };
  commit("a", "1");
  commit("b", "1");

  auto reader = (*db)->Begin();
  (*reader)->txn().set_isolation(IsolationLevel::kReadCommitted);
  std::vector<std::string> seen;
  ASSERT_TRUE(tm.Scan((*reader)->txn(), sid,
                      [&](std::string_view key, std::string_view) {
                        seen.emplace_back(key);
                        if (seen.size() > 1) return true;
                        const std::string other = key == "a" ? "b" : "a";
                        commit(other, "2");  // other: [1, 2]
                        std::string value;
                        EXPECT_TRUE(
                            tm.Read((*reader)->txn(), sid, key, &value).ok());
                        commit(other, "3");  // full: reclaims below the pins
                        return true;
                      })
                  .ok());
  ASSERT_TRUE((*reader)->Commit().ok());
  EXPECT_EQ(seen.size(), 2u) << "the scan lost a live key";
}

// A read-committed reader runs beside a hot-key writer that keeps filling
// version arrays (GC reclaims on every fill): every read of the live key
// must find it. A read at a cut no pin protects can lose its version to
// the collector and report NotFound.
TEST(ReadCommittedStressTest, NeverMissesALiveKeyBesideAHotWriter) {
  DatabaseOptions options;
  options.store_options.mvcc_slots = 2;
  options.store_options.mvcc_slots_max = 4;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto state = (*db)->CreateState("s");
  ASSERT_TRUE(state.ok());
  const StateId sid = (*state)->id();
  TransactionManager& tm = (*db)->txn_manager();
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE(tm.Write((*t)->txn(), sid, "hot", "0").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      auto t = (*db)->Begin();
      ASSERT_TRUE(tm.Write((*t)->txn(), sid, "hot", std::to_string(i)).ok());
      (void)(*t)->Commit();
    }
  });
  int misses = 0;
  for (int round = 0; round < 20; ++round) {
    auto t = (*db)->Begin();
    (*t)->txn().set_isolation(IsolationLevel::kReadCommitted);
    std::string value;
    for (int i = 0; i < 200; ++i) {
      if (!tm.Read((*t)->txn(), sid, "hot", &value).ok()) ++misses;
      std::size_t rows = 0;
      ASSERT_TRUE(tm.Scan((*t)->txn(), sid, [&](std::string_view,
                                                std::string_view) {
                      ++rows;
                      return true;
                    }).ok());
      if (rows != 1) ++misses;
    }
    ASSERT_TRUE((*t)->Commit().ok());
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(misses, 0) << "a read-committed read missed the live hot key";
}

}  // namespace
}  // namespace streamsi
