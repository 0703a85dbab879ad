// Commit-path invariants of the group-commit/lazy-floor/zero-allocation
// rebuild:
//   * steady-state commits allocate nothing beyond the immutable version
//     buffers MVCC requires (one per installed version),
//   * the GC-floor handshake runs only when a version array is full,
//   * a failed durable group-commit record FAILS the commit (no publication
//     of data recovery would roll back),
//   * commit listeners observe the write set through allocation-free views.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/streamsi.h"
#include "storage/hash_backend.h"
#include "tests/test_util.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter: global operator new/delete overridden binary-wide
// (same technique as the read-path allocation tests).
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
std::atomic<bool> g_count_heap_allocations{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_heap_allocations.load(std::memory_order_relaxed)) {
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace streamsi {
namespace {

class AllocationCounter {
 public:
  AllocationCounter() {
    g_heap_allocations.store(0, std::memory_order_relaxed);
    g_count_heap_allocations.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() {
    g_count_heap_allocations.store(false, std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return g_heap_allocations.load(std::memory_order_relaxed);
  }
};

/// Context + one in-memory MVCC store + manager (optionally with a durable
/// group-commit log).
struct Harness {
  explicit Harness(GroupCommitLog* log = nullptr, bool durable = false) {
    StoreOptions store_options;
    const StateId id = context.RegisterState("s");
    store = std::make_unique<VersionedStore>(
        id, "s", std::make_unique<HashTableBackend>(), store_options);
    group = context.RegisterGroup({id});
    protocol = MakeProtocol(ProtocolType::kMvcc, &context);
    manager = std::make_unique<TransactionManager>(
        &context, protocol.get(),
        [this](StateId sid) { return sid == 0 ? store.get() : nullptr; },
        log, durable);
  }

  StateContext context;
  std::unique_ptr<VersionedStore> store;
  GroupId group;
  std::unique_ptr<ConcurrencyProtocol> protocol;
  std::unique_ptr<TransactionManager> manager;
};

TEST(CommitPathAllocTest, SteadyStateCommitAllocatesOnlyVersionBuffers) {
  Harness h;
  // Keys long enough to defeat SSO in any string-keyed fallback; values
  // short enough for SSO so each installed version buffer is EXACTLY one
  // heap allocation (the immutable std::string object itself).
  const std::string keys[4] = {"alloc-key-000001", "alloc-key-000002",
                               "alloc-key-000003", "alloc-key-000004"};
  const std::string value = "v-small";

  // Warm up: create the keys, reach every pooled buffer's high-water mark
  // (write sets, commit locks, txn-slot vectors, reader string).
  std::string read_buffer;
  for (int cycle = 0; cycle < 8; ++cycle) {
    auto t = h.manager->Begin();
    ASSERT_TRUE(t.ok());
    (void)h.manager->Read((*t)->txn(), 0, keys[0], &read_buffer);
    for (const auto& key : keys) {
      ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, key, value).ok());
    }
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }

  // Steady state: a full transaction cycle must allocate exactly one buffer
  // per installed version — nothing for Put/Get/commit bookkeeping. The
  // minimum over several cycles filters the epoch reclaimer's periodic
  // sweep (which legitimately allocates its scratch every ~64 retires).
  std::uint64_t min_allocs = ~0ull;
  for (int cycle = 0; cycle < 8; ++cycle) {
    auto t = h.manager->Begin();
    ASSERT_TRUE(t.ok());
    AllocationCounter counter;
    ASSERT_TRUE(h.manager->Read((*t)->txn(), 0, keys[0], &read_buffer).ok());
    for (const auto& key : keys) {
      ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, key, value).ok());
    }
    for (const auto& key : keys) {  // read-your-own-writes probes
      ASSERT_TRUE(h.manager->Read((*t)->txn(), 0, key, &read_buffer).ok());
      ASSERT_EQ(read_buffer, value);
    }
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
    min_allocs = std::min(min_allocs, counter.count());
  }
  EXPECT_EQ(min_allocs, 4u)
      << "commit bookkeeping must not allocate beyond the 4 version buffers";
}

TEST(CommitPathAllocTest, CommitListenerDispatchAllocatesNothing) {
  // A state with a listener (TO_STREAM kOnCommit, the ingest probe) must
  // commit with the same allocation budget as one without: dispatch may
  // not copy the listener list.
  Harness h;
  const std::string keys[4] = {"listen-key-00001", "listen-key-00002",
                               "listen-key-00003", "listen-key-00004"};
  std::uint64_t changes_seen = 0;
  const auto token = h.manager->RegisterCommitListener(
      0, [&changes_seen](const CommitInfo& info) {
        info.ForEachChange([&](std::string_view, std::string_view, bool) {
          ++changes_seen;
        });
      });
  // Counts from after Begin (its handle is a heap object) through Commit.
  const auto commit_cycle = [&](std::uint64_t* allocs) {
    auto t = h.manager->Begin();
    ASSERT_TRUE(t.ok());
    AllocationCounter counter;
    for (const auto& key : keys) {
      ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, key, "v-small").ok());
    }
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
    *allocs = counter.count();
  };
  std::uint64_t allocs = 0;
  for (int cycle = 0; cycle < 8; ++cycle) commit_cycle(&allocs);
  std::uint64_t min_allocs = ~0ull;
  for (int cycle = 0; cycle < 8; ++cycle) {
    commit_cycle(&allocs);
    min_allocs = std::min(min_allocs, allocs);
  }
  EXPECT_EQ(changes_seen, 16u * 4u);
  EXPECT_EQ(min_allocs, 4u)
      << "listener dispatch must not allocate beyond the 4 version buffers";
  h.manager->UnregisterCommitListener(token);
}

TEST(CommitPathAllocTest, AbortPathAllocatesNothingAtSteadyState) {
  Harness h;
  const std::string key = "abort-key-000001";
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto t = h.manager->Begin();
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, key, "doomed").ok());
    ASSERT_TRUE(h.manager->Abort((*t)->txn()).ok());
  }
  std::uint64_t min_allocs = ~0ull;
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto t = h.manager->Begin();
    AllocationCounter counter;
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, key, "doomed").ok());
    ASSERT_TRUE(h.manager->Abort((*t)->txn()).ok());
    min_allocs = std::min(min_allocs, counter.count());
  }
  EXPECT_EQ(min_allocs, 0u) << "§4.2 aborts just clear the write set";
}

TEST(CommitPathTest, GcFloorResolvedOnlyWhenVersionArrayIsFull) {
  StoreOptions options;
  options.mvcc_slots = 4;
  VersionedStore store(0, "s", std::make_unique<HashTableBackend>(), options);

  int floor_computations = 0;
  const auto compute = +[](void* ctx) -> Timestamp {
    ++*static_cast<int*>(ctx);
    return kInfinityTs - 1;  // everything reclaimable
  };

  Timestamp ts = 0;
  // Fill the 4-slot array: install #1..#4 never need the floor (slot free).
  for (int i = 0; i < 4; ++i) {
    GcFloor floor(compute, &floor_computations);
    ASSERT_TRUE(
        store.ApplyCommitted("k", "v", false, ++ts, floor).ok());
    EXPECT_EQ(floor_computations, 0) << "floor resolved with free slots";
    EXPECT_FALSE(floor.resolved());
  }
  // Install #5 finds the array full: the floor must be computed exactly
  // once and GC must make room.
  {
    GcFloor floor(compute, &floor_computations);
    ASSERT_TRUE(
        store.ApplyCommitted("k", "v", false, ++ts, floor).ok());
    EXPECT_EQ(floor_computations, 1);
  }
}

TEST(CommitPathTest, FailedDurableGroupRecordFailsTheCommit) {
  testing::TempDir dir;
  GroupCommitLog log(SyncMode::kNone, 0);
  ASSERT_TRUE(log.Open(dir.path() + "/groups.log").ok());
  Harness h(&log, /*durable=*/true);

  {
    auto t = h.manager->Begin();
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, "k", "good").ok());
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }
  const Timestamp published = h.context.LastCts(h.group);

  log.InjectRecordFailures(1);
  {
    auto t = h.manager->Begin();
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, "k", "doomed").ok());
    const Status status = h.manager->Commit((*t)->txn());
    EXPECT_TRUE(status.IsIoError()) << status.ToString();
  }
  // Nothing was published and the installed version was purged: readers
  // still see the old value at the old snapshot.
  EXPECT_EQ(h.context.LastCts(h.group), published);
  {
    auto t = h.manager->Begin();
    std::string value;
    ASSERT_TRUE(h.manager->Read((*t)->txn(), 0, "k", &value).ok());
    EXPECT_EQ(value, "good");
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }
  // The system recovers once the log heals.
  {
    auto t = h.manager->Begin();
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, "k", "healed").ok());
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }
  {
    auto t = h.manager->Begin();
    std::string value;
    ASSERT_TRUE(h.manager->Read((*t)->txn(), 0, "k", &value).ok());
    EXPECT_EQ(value, "healed");
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }
  ASSERT_TRUE(log.Close().ok());
}

TEST(CommitPathTest, FailedCommitNeverReachesTheCheckpointImage) {
  // A commit whose durable record fails is rolled back in memory and never
  // logged. Nothing of it may reach the backend: not at commit time (the
  // commit path writes no backend), not in the next checkpoint's image, and
  // not after a reopen — for a failed write and for a failed DELETE.
  testing::TempDir dir;
  DatabaseOptions options;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  options.base_dir = dir.path() + "/db";
  StateId state = kInvalidStateId;
  const auto read = [&](Database& db) {
    auto t = db.Begin();
    std::string value;
    const Status status = db.txn_manager().Read((*t)->txn(), state, "k",
                                                &value);
    EXPECT_TRUE((*t)->Commit().ok());
    return status.ok() ? value : std::string("<") + status.ToString() + ">";
  };
  Timestamp good_cts = 0;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    state = (*(*db)->CreateState("s"))->id();
    ASSERT_TRUE((*db)->Recover().ok());
    {
      auto t = (*db)->Begin();
      ASSERT_TRUE((*db)->txn_manager().Write((*t)->txn(), state, "k", "good")
                      .ok());
      ASSERT_TRUE((*t)->Commit().ok());
    }
    good_cts = (*db)->GetState(state)->LatestModification("k");

    (*db)->group_log()->InjectRecordFailures(1);
    {
      auto t = (*db)->Begin();
      ASSERT_TRUE(
          (*db)->txn_manager().Write((*t)->txn(), state, "k", "doomed").ok());
      EXPECT_TRUE((*t)->Commit().IsIoError());
    }
    (*db)->group_log()->InjectRecordFailures(1);
    {
      auto t = (*db)->Begin();
      ASSERT_TRUE((*db)->txn_manager().Delete((*t)->txn(), state, "k").ok());
      EXPECT_TRUE((*t)->Commit().IsIoError());
    }
    EXPECT_EQ((*db)->GetState(state)->backend()->ApproximateCount(), 0u)
        << "the commit path wrote the backend";
    const Status checkpoint = (*db)->Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();

    // The image holds the good commit only: latest cts is still the good
    // commit's and the version is live (the failed delete left no dts).
    std::string blob;
    ASSERT_TRUE((*db)->GetState(state)->backend()->Get("k", &blob).ok());
    const auto image = MvccObject::Decode(blob, 8);
    ASSERT_TRUE(image.ok());
    EXPECT_EQ(image->LatestModification(), good_cts)
        << "aborted write or delete leaked into the image";
    EXPECT_TRUE(image->HasLiveVersion());
    EXPECT_EQ(read(**db), "good");
  }
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(read(**reopened), "good");
  EXPECT_EQ((*reopened)->GetState(state)->LatestModification("k"), good_cts);
}

TEST(CommitPathTest, FailedCommitPurgeIsScopedToOwnKeys) {
  // The undo of a failed commit must drop only the failing transaction's
  // own keys: with group commit, a CONCURRENT committer may already have
  // published versions with a HIGHER commit timestamp on other keys of the
  // same store — a store-wide PurgeVersionsAfter would destroy them.
  StoreOptions options;
  VersionedStore store(0, "s", std::make_unique<HashTableBackend>(),
                       options);
  ASSERT_TRUE(store.ApplyCommitted("own", "pre", false, 5, 0).ok());
  ASSERT_TRUE(store.ApplyCommitted("own", "mine", false, 7, 0).ok());
  // Concurrent committer's published write, timestamped AFTER ours.
  ASSERT_TRUE(store.ApplyCommitted("other", "theirs", false, 10, 0)
                  .ok());

  // Undo "our" commit at cts=7.
  EXPECT_EQ(store.PurgeKeyVersionsAfter("own", 6), 1u);

  std::string value;
  ASSERT_TRUE(store.ReadCommitted(kInfinityTs - 1, "own", &value).ok());
  EXPECT_EQ(value, "pre");  // our install rolled back, predecessor revived
  EXPECT_EQ(store.LatestModification("own"), 5u);  // FCW watermark too
  ASSERT_TRUE(store.ReadCommitted(kInfinityTs - 1, "other", &value).ok());
  EXPECT_EQ(value, "theirs");  // the concurrent commit is untouched
  EXPECT_EQ(store.LatestModification("other"), 10u);
}

TEST(CommitPathTest, CommitListenersSeeEffectiveChangesAsViews) {
  Harness h;
  struct Seen {
    std::string key;
    std::string value;
    bool is_delete;
  };
  std::vector<Seen> seen;
  Timestamp seen_cts = 0;
  const auto token = h.manager->RegisterCommitListener(
      0, [&](const CommitInfo& info) {
        seen_cts = info.commit_ts;
        info.ForEachChange([&](std::string_view key, std::string_view value,
                               bool is_delete) {
          seen.push_back(Seen{std::string(key), std::string(value),
                              is_delete});
        });
      });

  {
    auto t = h.manager->Begin();
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, "a", "old").ok());
    ASSERT_TRUE(h.manager->Write((*t)->txn(), 0, "a", "new").ok());
    ASSERT_TRUE(h.manager->Delete((*t)->txn(), 0, "b").ok());
    ASSERT_TRUE(h.manager->Commit((*t)->txn()).ok());
  }
  ASSERT_EQ(seen.size(), 2u);  // effective changes only (last write wins)
  EXPECT_EQ(seen[0].key, "a");
  EXPECT_EQ(seen[0].value, "new");
  EXPECT_FALSE(seen[0].is_delete);
  EXPECT_EQ(seen[1].key, "b");
  EXPECT_TRUE(seen[1].is_delete);
  EXPECT_EQ(seen_cts, h.context.LastCts(h.group));
  h.manager->UnregisterCommitListener(token);
}

}  // namespace
}  // namespace streamsi
