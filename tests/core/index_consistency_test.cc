// Transactional secondary indexes: commit-time maintenance inside the SAME
// §4.3 global commit as the base write, so a snapshot can never observe a
// base row without its index entries or vice versa — plus the durable
// catalog binding (reopen leaves the binding PENDING until the application
// re-binds the extractor) and the declaration-time error surface.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/index_key.h"
#include "core/streamsi.h"
#include "tests/test_util.h"

namespace streamsi {
namespace {

// Rows are "<group>|<payload>"; the secondary key is the group prefix.
std::string GroupOf(std::string_view value) {
  return std::string(value.substr(0, value.find('|')));
}

TransactionManager::IndexKeyExtractor GroupExtractor() {
  return [](std::string_view, std::string_view value) {
    return GroupOf(value);
  };
}

/// All (secondary, primary) pairs the index holds for `txn`'s snapshot.
std::multimap<std::string, std::string> IndexContent(TransactionHandle& txn,
                                                     StateId index) {
  std::multimap<std::string, std::string> content;
  EXPECT_TRUE(txn
                  .ScanRange(index, "", "",
                             [&](std::string_view composite,
                                 std::string_view primary) {
                               std::string_view secondary, suffix;
                               EXPECT_TRUE(SplitIndexKey(composite,
                                                         &secondary,
                                                         &suffix));
                               EXPECT_EQ(suffix, primary)
                                   << "index value must be the primary key";
                               content.emplace(std::string(secondary),
                                               std::string(primary));
                               return true;
                             })
                  .ok());
  return content;
}

TEST(IndexConsistencyTest, MaintenanceFollowsBaseWrites) {
  DatabaseOptions options;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto base = (*db)->CreateState("rows");
  ASSERT_TRUE(base.ok());
  auto index = (*db)->CreateIndex("rows", "rows_by_group", GroupExtractor());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const StateId base_id = (*base)->id();
  const StateId index_id = (*index)->id();

  // Insert: base row and index entry appear together.
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Write(base_id, "k1", "red|one").ok());
    ASSERT_TRUE((*t)->Write(base_id, "k2", "red|two").ok());
    ASSERT_TRUE((*t)->Write(base_id, "k3", "blue|three").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  {
    auto t = (*db)->Begin();
    const auto content = IndexContent(**t, index_id);
    EXPECT_EQ(content.size(), 3u);
    EXPECT_EQ(content.count("red"), 2u);
    EXPECT_EQ(content.count("blue"), 1u);
    ASSERT_TRUE((*t)->Commit().ok());
  }

  // Update that MOVES the secondary key: old entry gone, new one present.
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Write(base_id, "k2", "blue|two").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  // Update that KEEPS the secondary key: entry neither lost nor duplicated.
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Write(base_id, "k1", "red|one-v2").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  // Delete: entry disappears.
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Delete(base_id, "k3").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  {
    auto t = (*db)->Begin();
    const auto content = IndexContent(**t, index_id);
    EXPECT_EQ(content.size(), 2u);
    EXPECT_EQ(content.count("red"), 1u);
    EXPECT_EQ(content.count("blue"), 1u);
    std::string value;
    // Exact-match probe: only the blue entries.
    std::string lo, hi;
    IndexExactBounds("blue", &lo, &hi);
    std::vector<std::string> primaries;
    ASSERT_TRUE((*t)
                    ->ScanRange(index_id, lo, hi,
                                [&](std::string_view, std::string_view p) {
                                  primaries.emplace_back(p);
                                  return true;
                                })
                    .ok());
    EXPECT_EQ(primaries, std::vector<std::string>{"k2"});
    ASSERT_TRUE((*t)->Commit().ok());
  }
}

TEST(IndexConsistencyTest, CreateIndexBackfillsExistingRows) {
  DatabaseOptions options;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto base = (*db)->CreateState("rows");
  ASSERT_TRUE(base.ok());
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Write((*base)->id(), "k1", "red|one").ok());
    ASSERT_TRUE((*t)->Write((*base)->id(), "k2", "blue|two").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto index = (*db)->CreateIndex("rows", "rows_by_group", GroupExtractor());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto t = (*db)->Begin();
  const auto content = IndexContent(**t, (*index)->id());
  EXPECT_EQ(content.size(), 2u);
  EXPECT_EQ(content.count("red"), 1u);
  EXPECT_EQ(content.count("blue"), 1u);
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST(IndexConsistencyTest, DeclarationErrorSurface) {
  {
    DatabaseOptions options;
    options.protocol = ProtocolType::kS2pl;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateState("rows").ok());
    EXPECT_TRUE((*db)
                    ->CreateIndex("rows", "idx", GroupExtractor())
                    .status()
                    .IsNotSupported());
  }
  DatabaseOptions options;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateState("rows").ok());
  ASSERT_TRUE((*db)->CreateState("plain").ok());
  {
    // "plain" holds application data: re-declaring it as an index must
    // refuse (an EMPTY unbound state would be adopted instead — see
    // EmptyUnboundStateIsAdoptedAsIndex).
    auto t = (*db)->Begin();
    ASSERT_TRUE(
        (*t)->Write((*db)->FindState("plain")->id(), "k", "data").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  EXPECT_TRUE((*db)
                  ->CreateIndex("rows", "idx", nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE((*db)
                  ->CreateIndex("missing", "idx", GroupExtractor())
                  .status()
                  .IsInvalidArgument());
  // An existing non-index state with data cannot be re-declared as an
  // index.
  EXPECT_TRUE((*db)
                  ->CreateIndex("rows", "plain", GroupExtractor())
                  .status()
                  .IsInvalidArgument());
  // Idempotent re-declaration of a real index is fine (re-bind).
  auto index = (*db)->CreateIndex("rows", "idx", GroupExtractor());
  ASSERT_TRUE(index.ok());
  auto again = (*db)->CreateIndex("rows", "idx", GroupExtractor());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*index, *again);
  // ...but not as an index over a DIFFERENT base.
  EXPECT_TRUE((*db)
                  ->CreateIndex("plain", "idx", GroupExtractor())
                  .status()
                  .IsInvalidArgument());
}

TEST(IndexConsistencyTest, EmptyUnboundStateIsAdoptedAsIndex) {
  // Repair path for a crash inside a previous CreateIndex: the state (and
  // possibly group) declarations can land in the catalog without the
  // index-binding append. The reopened database then holds an EMPTY
  // unbound state under the index's name — re-issuing CreateIndex adopts
  // it (declares the missing binding, backfills) instead of refusing.
  // Pre-declaring the state directly models that catalog shape.
  DatabaseOptions options;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto base = (*db)->CreateState("rows");
  ASSERT_TRUE(base.ok());
  auto orphan = (*db)->CreateState("rows_by_group");
  ASSERT_TRUE(orphan.ok());
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Write((*base)->id(), "k1", "red|one").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto index = (*db)->CreateIndex("rows", "rows_by_group", GroupExtractor());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(*index, *orphan);  // adopted in place, not re-created
  {
    auto t = (*db)->Begin();
    const auto content = IndexContent(**t, (*index)->id());
    EXPECT_EQ(content.size(), 1u);  // backfilled from the base snapshot
    EXPECT_EQ(content.count("red"), 1u);
    ASSERT_TRUE((*t)->Commit().ok());
  }
  // Maintenance is live after adoption.
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Write((*base)->id(), "k2", "blue|two").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  auto t = (*db)->Begin();
  const auto content = IndexContent(**t, (*index)->id());
  EXPECT_EQ(content.size(), 2u);
  EXPECT_EQ(content.count("blue"), 1u);
  ASSERT_TRUE((*t)->Commit().ok());
}

TEST(IndexConsistencyTest, ExtractorSeparatorByteFailsLoudly) {
  DatabaseOptions options;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto base = (*db)->CreateState("rows");
  ASSERT_TRUE(base.ok());
  auto index = (*db)->CreateIndex("rows", "rows_by_group", GroupExtractor());
  ASSERT_TRUE(index.ok());
  // A base value whose group carries a 0x00 makes the extractor emit the
  // separator byte into the secondary key: the commit fails with
  // InvalidArgument instead of corrupting the composite encoding.
  {
    auto t = (*db)->Begin();
    const std::string value("re\0d|one", 8);
    ASSERT_TRUE((*t)->Write((*base)->id(), "k1", value).ok());
    EXPECT_TRUE((*t)->Commit().IsInvalidArgument());
  }
  // The failed commit published nothing — neither base row nor index entry.
  {
    auto t = (*db)->Begin();
    EXPECT_TRUE(IndexContent(**t, (*index)->id()).empty());
    std::string row;
    EXPECT_TRUE((*t)->Read((*base)->id(), "k1", &row).IsNotFound());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  // Backfill enforces the same contract at declaration time.
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Write((*base)->id(), "k2", "red|two").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  EXPECT_TRUE((*db)
                  ->CreateIndex("rows", "bad_idx",
                                [](std::string_view, std::string_view) {
                                  return std::string(1, '\0');
                                })
                  .status()
                  .IsInvalidArgument());
}

TEST(IndexConsistencyTest, ReopenLeavesBindingPendingUntilRebind) {
  testing::TempDir dir;
  DatabaseOptions options;
  options.base_dir = dir.path();
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  StateId base_id = kInvalidStateId;
  StateId index_id = kInvalidStateId;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    auto base = (*db)->CreateState("rows");
    ASSERT_TRUE(base.ok());
    auto index =
        (*db)->CreateIndex("rows", "rows_by_group", GroupExtractor());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    base_id = (*base)->id();
    index_id = (*index)->id();
    ASSERT_TRUE((*db)->Recover().ok());
    auto t = (*db)->Begin();
    ASSERT_TRUE((*t)->Write(base_id, "k1", "red|one").ok());
    ASSERT_TRUE((*t)->Write(base_id, "k2", "blue|two").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  }
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    // The catalog reopened base, index and their group; reads work — and
    // the recovered index content matches the recovered base.
    EXPECT_EQ((*db)->FindState("rows")->id(), base_id);
    EXPECT_EQ((*db)->FindState("rows_by_group")->id(), index_id);
    {
      auto t = (*db)->Begin();
      const auto content = IndexContent(**t, index_id);
      EXPECT_EQ(content.size(), 2u);
      EXPECT_EQ(content.count("red"), 1u);
      EXPECT_EQ(content.count("blue"), 1u);
      ASSERT_TRUE((*t)->Commit().ok());
    }
    // The extractor is not persistable, so the binding is PENDING: a write
    // commit on the base refuses rather than silently skipping maintenance.
    {
      auto t = (*db)->Begin();
      ASSERT_TRUE((*t)->Write(base_id, "k3", "red|three").ok());
      EXPECT_TRUE((*t)->Commit().IsUnavailable());
    }
    // Re-binding restores writability; maintenance picks up where it left.
    auto rebound =
        (*db)->CreateIndex("rows", "rows_by_group", GroupExtractor());
    ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
    EXPECT_EQ((*rebound)->id(), index_id);
    {
      auto t = (*db)->Begin();
      ASSERT_TRUE((*t)->Write(base_id, "k3", "red|three").ok());
      ASSERT_TRUE((*t)->Commit().ok());
    }
    auto t = (*db)->Begin();
    const auto content = IndexContent(**t, index_id);
    EXPECT_EQ(content.size(), 3u);
    EXPECT_EQ(content.count("red"), 2u);
    ASSERT_TRUE((*t)->Commit().ok());
  }
}

// Deterministic repro of the stale-index-entry race. Commit X draws its
// timestamp, then stalls applying an earlier state (version pressure under
// a lagging reader pin) before it installs the base row. T begins after X's
// timestamp was drawn, derives its index mutations — reading the base
// pre-image — and blocks inside the extractor, which runs right after that
// read. X then installs and publishes. A pre-image read that saw only
// INSTALLED versions missed X, X's cts sits below T's BOT, and T committed:
// its derived delete targeted the pre-X composite, leaving X's index entry
// next to T's. Read at T's pinned snapshot instead, First-Committer-Wins
// rejects T (X's cts is newer than that snapshot) and the index stays exact.
TEST(IndexConsistencyTest, PreImageIsReadAtTheCommitsSnapshot) {
  DatabaseOptions options;
  // Two slots, no growth: a key with one pinned superseded version is full.
  options.store_options.mvcc_slots = 2;
  options.store_options.mvcc_slots_max = 2;
  options.store_options.version_wait_micros = 30'000'000;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  const StateId other = (*(*db)->CreateState("other"))->id();
  auto base = (*db)->CreateState("rows");
  ASSERT_TRUE(base.ok());
  const StateId rows = (*base)->id();

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool in_extractor = false;
  bool release = false;
  auto index = (*db)->CreateIndex(
      "rows", "rows_by_value",
      [&](std::string_view, std::string_view value) {
        if (value == "T") {  // only T's new row blocks
          std::unique_lock<std::mutex> lock(gate_mutex);
          in_extractor = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release; });
        }
        return std::string(value);
      });
  ASSERT_TRUE(index.ok());
  const StateId index_id = (*index)->id();

  const auto commit_one = [&](StateId state, const std::string& key,
                              const std::string& value) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Write(state, key, value).ok());
    ASSERT_TRUE((*t)->Commit().ok());
  };
  commit_one(rows, "k", "A");
  commit_one(other, "hot", "v1");
  // The reader pins "hot" at v1; v2 then fills the key's second slot.
  auto reader = (*db)->Begin();
  ASSERT_TRUE(reader.ok());
  std::string value;
  ASSERT_TRUE((*reader)->Read(other, "hot", &value).ok());
  commit_one(other, "hot", "v2");

  // X: "other" first, so its base install waits behind the pinned key.
  Status x_status;
  std::thread x([&] {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Write(other, "hot", "x").ok());
    ASSERT_TRUE((*t)->Write(rows, "k", "X").ok());
    x_status = (*t)->Commit();
  });
  VersionedStore* other_store = (*db)->GetState(other);
  while (other_store->stats().version_wait_stalls.load() == 0) {
    std::this_thread::yield();
  }

  Status t_status;
  std::thread t_thread([&] {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Write(rows, "k", "T").ok());
    t_status = (*t)->Commit();
  });
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return in_extractor; });
  }
  // T sits between its pre-image read and validation: let X finish.
  ASSERT_TRUE((*reader)->Commit().ok());
  x.join();
  ASSERT_TRUE(x_status.ok()) << x_status.ToString();
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  t_thread.join();
  EXPECT_TRUE(t_status.IsConflict()) << t_status.ToString();

  auto check = (*db)->Begin();
  ASSERT_TRUE(check.ok());
  ASSERT_TRUE((*check)->Read(rows, "k", &value).ok());
  const auto content = IndexContent(**check, index_id);
  ASSERT_TRUE((*check)->Commit().ok());
  ASSERT_EQ(content.size(), 1u) << "stale index entry survived";
  EXPECT_EQ(content.begin()->first, value);
  EXPECT_EQ(content.begin()->second, "k");
}

// The headline §4.3 property: under concurrent committers that move rows
// between secondary keys, NO snapshot may ever observe a base row and its
// index entries in disagreement — in either direction.
TEST(IndexConsistencyTest, StressBaseAndIndexNeverObservableSeparately) {
  constexpr int kWriters = 3;
  constexpr int kScannerRounds = 400;
  constexpr int kKeys = 32;
  constexpr int kGroups = 4;

  DatabaseOptions options;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto base = (*db)->CreateState("rows");
  ASSERT_TRUE(base.ok());
  auto index = (*db)->CreateIndex("rows", "rows_by_group", GroupExtractor());
  ASSERT_TRUE(index.ok());
  const StateId base_id = (*base)->id();
  const StateId index_id = (*index)->id();

  const auto key_for = [](int k) { return "key-" + std::to_string(k); };
  const auto group_for = [](std::uint64_t g) {
    return "group-" + std::to_string(g);
  };

  constexpr int kOpsPerWriter = 4000;
  std::atomic<int> writers_done{0};
  std::atomic<std::uint64_t> commits{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Xorshift rng(0xD1CE + w);
      for (int op = 0; op < kOpsPerWriter; ++op) {
        auto t = (*db)->Begin();
        if (!t.ok()) continue;
        const std::string key = key_for(rng.Uniform(kKeys));
        Status status;
        if (rng.Uniform(8) == 0) {
          status = (*t)->Delete(base_id, key);
        } else {
          status = (*t)->Write(base_id, key,
                               group_for(rng.Uniform(kGroups)) + "|payload");
        }
        if (!status.ok()) continue;
        if ((*t)->Commit().ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // Scan while the writers run (the interesting interleavings), then a few
  // more rounds against the settled state.
  for (int round = 0;
       round < kScannerRounds ||
       writers_done.load(std::memory_order_acquire) < kWriters;
       ++round) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    // One snapshot, both states (they share a topology group, so the §4.3
    // cut covers them together).
    std::multimap<std::string, std::string> index_content =
        IndexContent(**t, index_id);
    std::map<std::string, std::string> rows;
    ASSERT_TRUE((*t)
                    ->Scan(base_id,
                           [&](std::string_view k, std::string_view v) {
                             rows.emplace(std::string(k), std::string(v));
                             return true;
                           })
                    .ok());
    ASSERT_TRUE((*t)->Commit().ok());

    // Forward: every index entry resolves to a base row of the SAME
    // secondary key.
    std::set<std::string> indexed_primaries;
    for (const auto& [secondary, primary] : index_content) {
      auto row = rows.find(primary);
      ASSERT_NE(row, rows.end())
          << "dangling index entry: " << secondary << " -> " << primary;
      ASSERT_EQ(GroupOf(row->second), secondary)
          << "stale index entry for " << primary;
      indexed_primaries.insert(primary);
    }
    // Backward: every base row is indexed (exactly once, by the forward
    // check + this count).
    ASSERT_EQ(index_content.size(), rows.size());
    ASSERT_EQ(indexed_primaries.size(), rows.size());
  }

  for (auto& t : writers) t.join();
  EXPECT_GT(commits.load(), 0u);
}

}  // namespace
}  // namespace streamsi
