#include "txn/versioned_store.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

#include "storage/hash_backend.h"
#include "tests/test_util.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter: global operator new/delete overridden binary-wide
// so tests can assert that the snapshot read path allocates nothing for
// resident keys.
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

/// RAII scope that counts heap allocations made while it is alive.
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

std::unique_ptr<VersionedStore> MakeStore(StateId id = 0,
                                          StoreOptions options = {}) {
  return std::make_unique<VersionedStore>(
      id, "test", std::make_unique<HashTableBackend>(), options);
}

TEST(VersionedStoreTest, ReadMissingKeyIsNotFound) {
  auto store = MakeStore();
  std::string value;
  EXPECT_TRUE(store->ReadCommitted(100, "k", &value).IsNotFound());
  EXPECT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).IsNotFound());
  EXPECT_EQ(store->LatestModification("k"), kInitialTs);
}

TEST(VersionedStoreTest, ApplyThenReadAtSnapshot) {
  auto store = MakeStore();
  ASSERT_TRUE(store->ApplyCommitted("k", "v1", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("k", "v2", false, 20, 0).ok());
  std::string value;
  ASSERT_TRUE(store->ReadCommitted(15, "k", &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(store->ReadCommitted(20, "k", &value).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(store->LatestModification("k"), 20u);
}

TEST(VersionedStoreTest, DeleteOfMissingKeyIsNoop) {
  auto store = MakeStore();
  EXPECT_TRUE(store->ApplyCommitted("ghost", "", true, 10, 0).ok());
}

TEST(VersionedStoreTest, CommitLockIsExclusivePerKey) {
  auto store = MakeStore();
  ASSERT_TRUE(store->LockForCommit("k", 1).ok());
  EXPECT_TRUE(store->LockForCommit("k", 2).IsConflict());
  EXPECT_TRUE(store->LockForCommit("k", 1).ok());  // re-entrant
  EXPECT_TRUE(store->LockForCommit("other", 2).ok());
  store->UnlockCommit("k", 1);
  EXPECT_TRUE(store->LockForCommit("k", 2).ok());
  store->UnlockCommit("k", 2);
  store->UnlockCommit("other", 2);
}

TEST(VersionedStoreTest, UnlockByNonOwnerIsIgnored) {
  auto store = MakeStore();
  ASSERT_TRUE(store->LockForCommit("k", 1).ok());
  store->UnlockCommit("k", 99);  // not the owner
  EXPECT_TRUE(store->LockForCommit("k", 2).IsConflict());
  store->UnlockCommit("k", 1);
}

TEST(VersionedStoreTest, ScanSeesSnapshot) {
  auto store = MakeStore();
  ASSERT_TRUE(store->ApplyCommitted("a", "1", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("b", "2", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("b", "2'", false, 20, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("c", "3", false, 20, 0).ok());

  std::map<std::string, std::string> at10;
  ASSERT_TRUE(store
                  ->ScanCommitted(10,
                                  [&](std::string_view k, std::string_view v) {
                                    at10[std::string(k)] = std::string(v);
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(at10.size(), 2u);
  EXPECT_EQ(at10["b"], "2");

  std::map<std::string, std::string> at20;
  ASSERT_TRUE(store
                  ->ScanCommitted(20,
                                  [&](std::string_view k, std::string_view v) {
                                    at20[std::string(k)] = std::string(v);
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(at20.size(), 3u);
  EXPECT_EQ(at20["b"], "2'");
}

TEST(VersionedStoreTest, CheckpointImagePersistsAndReloads) {
  StoreOptions options;
  auto backend = std::make_unique<HashTableBackend>();
  HashTableBackend* backend_raw = backend.get();
  auto store = std::make_unique<VersionedStore>(0, "s", std::move(backend),
                                                options);
  ASSERT_TRUE(store->ApplyCommitted("k", "v", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("k", "v2", false, 20, 0).ok());
  EXPECT_EQ(backend_raw->ApproximateCount(), 0u)
      << "a commit must not write the backend";

  // The image at a cut of 15 holds the version at 10, still live: the
  // commit at 20 is above the cut and comes back from the log.
  ASSERT_TRUE(store->WriteCheckpointImages(15).ok());
  EXPECT_EQ(backend_raw->ApproximateCount(), 1u);
  // A fresh store over the same backend data must see the version again.
  // (HashTableBackend is in-process, so simulate by decoding the blob.)
  std::string blob;
  ASSERT_TRUE(backend_raw->Get("k", &blob).ok());
  auto object = MvccObject::Decode(blob, 8);
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object->VersionCount(), 1);
  std::string value;
  ASSERT_TRUE(object->GetVisible(30, &value));
  EXPECT_EQ(value, "v");

  // Unchanged since its image: the next checkpoint rewrites it only
  // because the version at 20 is not in the image yet.
  ASSERT_TRUE(backend_raw->Delete("k", false).ok());
  ASSERT_TRUE(store->WriteCheckpointImages(25).ok());
  ASSERT_TRUE(backend_raw->Get("k", &blob).ok());
  auto newer = MvccObject::Decode(blob, 8);
  ASSERT_TRUE(newer.ok());
  ASSERT_TRUE(newer->GetVisible(30, &value));
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(backend_raw->Delete("k", false).ok());
  ASSERT_TRUE(store->WriteCheckpointImages(40).ok());
  EXPECT_TRUE(backend_raw->Get("k", &blob).IsNotFound())
      << "a clean key must not be re-imaged";
}

TEST(VersionedStoreTest, ReplayNeverInstallsAnOlderCtsAfterANewerOne) {
  auto store = MakeStore();
  ASSERT_TRUE(store->ReplayCommitted("k", "v20", false, 20, 0).ok());
  // Records at or below what the key already holds are skipped: replaying
  // the same record twice, or an older one after a newer one, installs
  // nothing.
  ASSERT_TRUE(store->ReplayCommitted("k", "v20", false, 20, 0).ok());
  ASSERT_TRUE(store->ReplayCommitted("k", "v10", false, 10, 0).ok());
  ASSERT_TRUE(store->ReplayCommitted("k", "", true, 15, 0).ok());
  std::string value;
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).ok());
  EXPECT_EQ(value, "v20");
  EXPECT_TRUE(store->ReadCommitted(19, "k", &value).IsNotFound());
  EXPECT_EQ(store->LatestModification("k"), 20u);
  // A newer record still applies.
  ASSERT_TRUE(store->ReplayCommitted("k", "", true, 30, 0).ok());
  EXPECT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).IsNotFound());
  ASSERT_TRUE(store->ReadCommitted(25, "k", &value).ok());
  EXPECT_EQ(value, "v20");
}

TEST(VersionedStoreTest, BulkLoadVisibleToEveryone) {
  auto store = MakeStore();
  ASSERT_TRUE(store->BulkLoad("k", "preloaded").ok());
  std::string value;
  ASSERT_TRUE(store->ReadCommitted(0, "k", &value).ok());
  EXPECT_EQ(value, "preloaded");
  EXPECT_EQ(store->KeyCount(), 1u);
}

TEST(VersionedStoreTest, PurgeVersionsAfterWatermark) {
  auto store = MakeStore();
  ASSERT_TRUE(store->ApplyCommitted("a", "ok", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("a", "lost", false, 30, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("b", "lost", false, 30, 0).ok());
  EXPECT_EQ(store->PurgeVersionsAfter(20), 2u);
  std::string value;
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "a", &value).ok());
  EXPECT_EQ(value, "ok");
  EXPECT_TRUE(store->ReadCommitted(kInfinityTs - 1, "b", &value).IsNotFound());
  EXPECT_EQ(store->MaxCommittedCts(), 10u);
}

TEST(VersionedStoreTest, AdaptiveGrowthAbsorbsHotKeyChurnUnderLaggingPin) {
  StoreOptions options;
  options.mvcc_slots = 2;
  options.mvcc_slots_max = 8;
  auto store = MakeStore(0, options);
  // A pin at 0 keeps everything visible: each full array must grow.
  for (Timestamp ts = 1; ts <= 8; ++ts) {
    ASSERT_TRUE(store
                    ->ApplyCommitted("hot", "v" + std::to_string(ts), false,
                                     ts * 10, /*oldest_active=*/kInitialTs)
                    .ok())
        << "ts " << ts;
  }
  EXPECT_EQ(store->stats().slot_growths.load(), 2u);  // 2 -> 4 -> 8
  EXPECT_EQ(store->stats().version_wait_stalls.load(), 0u);
  std::string value;
  for (Timestamp ts = 1; ts <= 8; ++ts) {
    ASSERT_TRUE(store->ReadCommitted(ts * 10, "hot", &value).ok());
    EXPECT_EQ(value, "v" + std::to_string(ts));
  }
  // At mvcc_slots_max with a FIXED (non-refreshable) floor: fail fast — a
  // fixed watermark can never rise, so waiting would be pure dead time.
  EXPECT_TRUE(store->ApplyCommitted("hot", "v9", false, 90, kInitialTs)
                  .IsResourceExhausted());
  EXPECT_EQ(store->stats().version_wait_stalls.load(), 0u);
}

TEST(VersionedStoreTest, BackpressureWaitsForRefreshableFloorToAdvance) {
  StoreOptions options;
  options.mvcc_slots = 2;
  options.mvcc_slots_max = 2;  // growth off: exercise the wait path alone
  options.version_wait_micros = 2'000'000;
  auto store = MakeStore(0, options);
  ASSERT_TRUE(store->ApplyCommitted("k", "v1", false, 10, kInitialTs)
                  .ok());
  ASSERT_TRUE(store->ApplyCommitted("k", "v2", false, 20, kInitialTs)
                  .ok());

  // A refreshable floor that rises from 0 to 15 when the "lagging reader"
  // is released (as EndTransaction would), with the wait hook doubling as
  // the release trigger after the first nap.
  struct Ctx {
    std::atomic<Timestamp> floor{kInitialTs};
    std::atomic<int> computes{0};
    std::atomic<int> waits{0};
  } ctx;
  GcFloor floor(
      +[](void* c) -> Timestamp {
        auto* x = static_cast<Ctx*>(c);
        x->computes.fetch_add(1);
        return x->floor.load();
      },
      &ctx,
      +[](void* c, std::uint64_t) {
        auto* x = static_cast<Ctx*>(c);
        x->waits.fetch_add(1);
        // v1 lives in [10, 20): a floor of 25 releases it — the moment the
        // lagging reader's transaction would have ended.
        x->floor.store(25);
      });
  const Status first = store->ApplyCommitted("k", "v3", false, 30, floor);
  ASSERT_TRUE(first.ok()) << first.ToString();
  EXPECT_GE(ctx.waits.load(), 1);
  EXPECT_GE(ctx.computes.load(), 2);  // initial resolve + >=1 re-resolution
  EXPECT_EQ(store->stats().version_wait_stalls.load(), 1u);
  std::string value;
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).ok());
  EXPECT_EQ(value, "v3");
}

TEST(VersionedStoreTest, BackpressureGivesUpAfterBoundedWait) {
  StoreOptions options;
  options.mvcc_slots = 2;
  options.mvcc_slots_max = 2;
  options.version_wait_micros = 3'000;  // tiny budget: the pin never moves
  auto store = MakeStore(0, options);
  ASSERT_TRUE(store->ApplyCommitted("k", "v1", false, 10, kInitialTs)
                  .ok());
  ASSERT_TRUE(store->ApplyCommitted("k", "v2", false, 20, kInitialTs)
                  .ok());

  std::atomic<int> waits{0};
  GcFloor floor(
      +[](void*) -> Timestamp { return kInitialTs; }, &waits,
      +[](void* c, std::uint64_t micros) {
        static_cast<std::atomic<int>*>(c)->fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(micros));
      });
  EXPECT_TRUE(store->ApplyCommitted("k", "v3", false, 30, floor)
                  .IsResourceExhausted());
  EXPECT_GE(waits.load(), 1);
  EXPECT_EQ(store->stats().version_wait_stalls.load(), 1u);
  // The stall left the key intact.
  std::string value;
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST(VersionedStoreTest, GarbageCollectAllReclaims) {
  StoreOptions options;
  options.mvcc_slots = 4;
  auto store = MakeStore(0, options);
  for (Timestamp ts = 1; ts <= 3; ++ts) {
    ASSERT_TRUE(
        store->ApplyCommitted("k", "v" + std::to_string(ts), false, ts * 10,
                              0)
            .ok());
  }
  // All snapshots up to 30 are released.
  EXPECT_EQ(store->GarbageCollectAll(30), 2u);
  std::string value;
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).ok());
  EXPECT_EQ(value, "v3");
}

TEST(VersionedStoreTest, LoadFromBackendRebuildsStore) {
  StoreOptions options;
  std::map<std::string, std::string> blobs;
  {
    auto backend = std::make_unique<HashTableBackend>();
    HashTableBackend* backend_raw = backend.get();
    VersionedStore store(0, "s", std::move(backend), options);
    ASSERT_TRUE(store.ApplyCommitted("x", "1", false, 5, 0).ok());
    ASSERT_TRUE(store.ApplyCommitted("y", "2", false, 7, 0).ok());
    ASSERT_TRUE(store.WriteCheckpointImages(kInfinityTs).ok());
    backend_raw->Scan([&](std::string_view k, std::string_view v) {
      blobs[std::string(k)] = std::string(v);
      return true;
    });
  }
  // Copy the surviving blobs into a fresh backend, as a restart would find
  // them on disk.
  auto backend2 = std::make_unique<HashTableBackend>();
  for (const auto& [k, v] : blobs) backend2->Put(k, v, false);
  VersionedStore reloaded(0, "s", std::move(backend2), options);
  ASSERT_TRUE(reloaded.LoadFromBackend().ok());
  std::string value;
  ASSERT_TRUE(reloaded.ReadCommitted(kInfinityTs - 1, "x", &value).ok());
  EXPECT_EQ(value, "1");
  EXPECT_EQ(reloaded.KeyCount(), 2u);
  EXPECT_EQ(reloaded.MaxCommittedCts(), 7u);
}

TEST(VersionedStoreTest, WarmReloadReplacesEntriesAndMaintenanceSeesOnlyThem) {
  StoreOptions options;
  auto backend = std::make_unique<HashTableBackend>();
  VersionedStore store(0, "s", std::move(backend), options);
  // Persisted state: k@5. Then advance the in-memory state past the backend
  // snapshot and reload: the store must roll back to what the backend holds.
  ASSERT_TRUE(store.ApplyCommitted("k", "persisted", false, 5, 0).ok());
  ASSERT_TRUE(store.WriteCheckpointImages(kInfinityTs).ok());
  std::string blob;
  ASSERT_TRUE(store.backend()->Get("k", &blob).ok());
  ASSERT_TRUE(store.ApplyCommitted("k", "newer", false, 100, 0).ok());
  ASSERT_TRUE(store.backend()->Put("k", blob, false).ok());  // stale blob
  ASSERT_TRUE(store.LoadFromBackend().ok());

  // The superseded entry (cts=100) is unreachable: reads and maintenance
  // must only see the recovered state.
  std::string value;
  ASSERT_TRUE(store.ReadCommitted(kInfinityTs - 1, "k", &value).ok());
  EXPECT_EQ(value, "persisted");
  EXPECT_EQ(store.MaxCommittedCts(), 5u);
  EXPECT_EQ(store.LatestModification("k"), 5u);
  EXPECT_EQ(store.KeyCount(), 1u);
  std::size_t scanned = 0;
  ASSERT_TRUE(store
                  .ScanCommitted(200,
                                 [&](std::string_view, std::string_view v) {
                                   ++scanned;
                                   EXPECT_EQ(v, "persisted");
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(scanned, 1u) << "graveyarded entry must not be scanned";
}

TEST(VersionedStoreTest, StatsCountReadsInstallsAndMisses) {
  auto store = MakeStore();
  ASSERT_TRUE(store->ApplyCommitted("a", "1", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("b", "2", false, 20, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("b", "", true, 30, 0).ok());

  std::string value;
  ASSERT_TRUE(store->ReadCommitted(15, "a", &value).ok());
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "a", &value).ok());
  EXPECT_TRUE(store->ReadCommitted(15, "missing", &value).IsNotFound());
  EXPECT_TRUE(store->ReadCommitted(5, "b", &value).IsNotFound());
  // deleted
  EXPECT_TRUE(store->ReadCommitted(kInfinityTs - 1, "b", &value).IsNotFound());

  const StoreStats& stats = store->stats();
  EXPECT_EQ(stats.installs.load(), 2u);
  EXPECT_EQ(stats.deletes.load(), 1u);
  EXPECT_EQ(stats.reads.load(), 5u);
  // Exactly one miss per failed read — the miss path must not double-count.
  EXPECT_EQ(stats.read_misses.load(), 3u);
  EXPECT_EQ(stats.scans.load(), 0u);
  ASSERT_TRUE(store
                  ->ScanCommitted(100,
                                  [](std::string_view, std::string_view) {
                                    return true;
                                  })
                  .ok());
  EXPECT_EQ(stats.scans.load(), 1u);
}

TEST(VersionedStoreReadPathTest, ReadCommittedZeroAllocForResidentKeys) {
  StoreOptions options;
  auto store = MakeStore(0, options);
  for (int k = 0; k < 16; ++k) {
    const std::string key = "key-" + std::to_string(k);
    ASSERT_TRUE(store
                    ->ApplyCommitted(key, "value-" + std::to_string(k), false,
                                     10, 0)
                    .ok());
  }

  const std::string key = "key-7";
  std::string value;
  value.reserve(64);
  // Warm-up: claims this thread's epoch slot and sizes the output buffer.
  ASSERT_TRUE(store->ReadCommitted(50, key, &value).ok());

  AllocationCounter counter;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store->ReadCommitted(50, key, &value).ok());
    ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, key, &value).ok());
  }
  EXPECT_EQ(counter.count(), 0u)
      << "snapshot reads of resident keys must not allocate";
  EXPECT_EQ(value, "value-7");
}

TEST(VersionedStoreReadPathTest, ScanCommittedZeroAllocAfterWarmup) {
  StoreOptions options;
  auto store = MakeStore(0, options);
  for (int k = 0; k < 32; ++k) {
    // Values fit in SSO buffers, so the scan's reusable buffer never grows.
    ASSERT_TRUE(store
                    ->ApplyCommitted("key-" + std::to_string(k), "v", false,
                                     10, 0)
                    .ok());
  }
  std::size_t seen = 0;
  const std::function<bool(std::string_view, std::string_view)> callback =
      [&seen](std::string_view, std::string_view) {
        ++seen;
        return true;
      };
  ASSERT_TRUE(store->ScanCommitted(50, callback).ok());  // warm-up
  ASSERT_EQ(seen, 32u);

  AllocationCounter counter;
  ASSERT_TRUE(store->ScanCommitted(50, callback).ok());
  EXPECT_EQ(counter.count(), 0u)
      << "scans over resident keys must not allocate";
  EXPECT_EQ(seen, 64u);
}

TEST(VersionedStoreReadPathTest, ScanCallbackMayCreateKeysInSameStore) {
  // Regression: ScanCommitted used to hold the shard latch in shared mode
  // across the callback, so a callback creating a new key (exclusive latch
  // on the same shard) self-deadlocked. The scan now releases the latch
  // before every callback, making write-backs — including inserts — safe.
  StoreOptions options;
  auto store = MakeStore(0, options);
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(store
                    ->ApplyCommitted("key-" + std::to_string(k), "v", false,
                                     10, 0)
                    .ok());
  }
  std::size_t seen = 0;
  ASSERT_TRUE(store
                  ->ScanCommitted(
                      50,
                      [&](std::string_view key, std::string_view) {
                        ++seen;
                        EXPECT_TRUE(store
                                        ->ApplyCommitted(
                                            std::string("derived-") +
                                                std::string(key),
                                            "d", false, 20, 0)
                                        .ok());
                        return true;
                      })
                  .ok());
  EXPECT_GE(seen, 16u);
  std::string value;
  EXPECT_TRUE(store->ReadCommitted(50, "derived-key-0", &value).ok());
  EXPECT_EQ(value, "d");
}

TEST(VersionedStoreReadPathTest, NewestReadSkipsDeletedAndOldVersions) {
  auto store = MakeStore();
  ASSERT_TRUE(store->ApplyCommitted("k", "v1", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("k", "v2", false, 20, 0).ok());
  std::string value;
  ASSERT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(store->ApplyCommitted("k", "", true, 30, 0).ok());
  // The newest version is a tombstone: the direct live-version probe must
  // report NotFound, not resurrect v2.
  EXPECT_TRUE(store->ReadCommitted(kInfinityTs - 1, "k", &value).IsNotFound());
  // Old snapshots still see the pre-delete value.
  ASSERT_TRUE(store->ReadCommitted(25, "k", &value).ok());
  EXPECT_EQ(value, "v2");
}

// Stress: readers and scanners race installs, deletes, and GC. Asserts no
// torn reads (values always match the key they were written for) and no
// lost visible versions (a never-deleted key must stay readable).
TEST(VersionedStoreStressTest, ConcurrentReadersVsInstallDeleteGc) {
  constexpr int kKeys = 64;
  constexpr int kReaders = 3;
  constexpr auto kRunTime = std::chrono::milliseconds(300);

  StoreOptions options;
  options.mvcc_slots = 4;
  auto store = MakeStore(0, options);

  const auto key_for = [](int k) { return "key-" + std::to_string(k); };
  const auto value_for = [&](int k, Timestamp ts) {
    return key_for(k) + "@" + std::to_string(ts);
  };
  // Preload every key so readers always have something visible; key 0 is
  // never deleted and must never disappear.
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(
        store->ApplyCommitted(key_for(k), value_for(k, 1), false, 1, 0)
            .ok());
  }

  std::atomic<Timestamp> clock{1};
  std::atomic<Timestamp> oldest_active{1};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_ok{0};
  std::atomic<bool> failed{false};
  std::vector<std::string> errors(static_cast<std::size_t>(kReaders) + 3);
  std::vector<std::thread> threads;

  // Active-snapshot table: readers publish their read timestamp, the GC
  // thread derives the oldest-active watermark from it — the same contract
  // the transaction manager provides in the full system. gc_floor is the
  // newest watermark GC may already be collecting at; a reader whose chosen
  // snapshot fell behind it discards the snapshot and picks a fresh one.
  std::array<std::atomic<Timestamp>, kReaders> reader_snapshot;
  for (auto& snapshot : reader_snapshot) snapshot.store(kInfinityTs);
  std::atomic<Timestamp> gc_floor{0};

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::string value;
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Timestamp now = clock.load(std::memory_order_seq_cst);
        reader_snapshot[static_cast<std::size_t>(r)].store(
            now, std::memory_order_seq_cst);
        if (gc_floor.load(std::memory_order_seq_cst) >= now) {
          // GC may already be reclaiming versions this snapshot needs.
          reader_snapshot[static_cast<std::size_t>(r)].store(
              kInfinityTs, std::memory_order_seq_cst);
          continue;
        }
        const int k = static_cast<int>(i++ % kKeys);
        const std::string key = key_for(k);
        const Status status = store->ReadCommitted(now, key, &value);
        reader_snapshot[static_cast<std::size_t>(r)].store(
            kInfinityTs, std::memory_order_seq_cst);
        if (status.ok()) {
          // Torn-read check: the value must belong to this key.
          if (value.compare(0, key.size(), key) != 0 ||
              value.size() <= key.size() || value[key.size()] != '@') {
            errors[static_cast<std::size_t>(r)] =
                "torn read: key=" + key + " value=" + value;
            failed.store(true, std::memory_order_release);
            return;
          }
          reads_ok.fetch_add(1, std::memory_order_relaxed);
        } else if (k == 0) {
          // Key 0 is never deleted: a miss means a lost visible version.
          errors[static_cast<std::size_t>(r)] =
              "lost visible version for key-0 at ts=" + std::to_string(now);
          failed.store(true, std::memory_order_release);
          return;
        }
      }
    });
  }
  // Scanner thread: snapshot scans must only yield well-formed pairs.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Timestamp now = clock.load(std::memory_order_acquire);
      const Status status = store->ScanCommitted(
          now, [&](std::string_view key, std::string_view value) {
            if (value.substr(0, key.size()) != key) {
              errors[kReaders] = "torn scan: key=" + std::string(key) +
                                 " value=" + std::string(value);
              failed.store(true, std::memory_order_release);
              return false;
            }
            return true;
          });
      if (!status.ok()) {
        errors[kReaders] = "scan failed: " + std::string(status.message());
        failed.store(true, std::memory_order_release);
        return;
      }
    }
  });
  // Writer thread: installs and tombstones at strictly increasing ts.
  threads.emplace_back([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Timestamp ts = clock.fetch_add(1, std::memory_order_acq_rel) + 1;
      const int k = static_cast<int>(i++ % kKeys);
      Status status;
      if (k != 0 && i % 7 == 0) {
        status = store->ApplyCommitted(key_for(k), "", true, ts,
                                       oldest_active.load());
        if (status.ok()) {
          status = store->ApplyCommitted(
              key_for(k), value_for(k, ts + 1),
              false, clock.fetch_add(1, std::memory_order_acq_rel) + 1,
              oldest_active.load());
        }
      } else {
        status = store->ApplyCommitted(key_for(k), value_for(k, ts), false,
                                       ts, oldest_active.load());
      }
      if (!status.ok() && !status.IsResourceExhausted()) {
        errors[kReaders + 1] = "write failed: " + std::string(status.message());
        failed.store(true, std::memory_order_release);
        return;
      }
      if (status.IsResourceExhausted()) {
        // Version array full of still-visible versions: legitimate while
        // readers pin old snapshots — yield so the GC thread catches up.
        std::this_thread::yield();
      }
    }
  });
  // GC thread: derives the oldest-active watermark from the reader
  // snapshot table and collects. The double scan around the gc_floor
  // publication closes the race with a reader that picked its snapshot
  // before the first scan but published it after.
  threads.emplace_back([&] {
    const auto oldest_snapshot = [&] {
      Timestamp oldest = clock.load(std::memory_order_seq_cst);
      for (const auto& snapshot : reader_snapshot) {
        oldest =
            std::min(oldest, snapshot.load(std::memory_order_seq_cst));
      }
      return oldest;
    };
    while (!stop.load(std::memory_order_relaxed)) {
      Timestamp floor = oldest_snapshot();
      floor = floor > 0 ? floor - 1 : 0;
      gc_floor.store(floor, std::memory_order_seq_cst);
      const Timestamp recheck = oldest_snapshot();
      if (recheck <= floor) floor = recheck > 0 ? recheck - 1 : 0;
      oldest_active.store(floor, std::memory_order_release);
      store->GarbageCollectAll(floor);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::this_thread::sleep_for(kRunTime);
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  for (const std::string& error : errors) {
    EXPECT_TRUE(error.empty()) << error;
  }
  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads_ok.load(), 0u);
  // Sanity: the stress must have exercised the optimistic path.
  EXPECT_GT(store->stats().reads.load(), 0u);
}

}  // namespace
}  // namespace streamsi
