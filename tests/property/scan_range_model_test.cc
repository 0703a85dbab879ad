// Property tests for the ordered read path (VersionedStore::
// ScanRangeCommitted and the per-store ordered key index behind it).
//
// 1. A randomized single-threaded workload of installs, deletes, GC and
//    recovery purges must make every range scan agree with a naive
//    std::map-of-versions model sliced to [lo, hi).
// 2. Under concurrent installs, deletes and GC, a scan must stay ordered,
//    stay inside its bounds, and only surface versions visible at its
//    snapshot — and a snapshot below every concurrent commit must see
//    exactly the preloaded content, bit for bit.
// 3. The scan allocates nothing once warm (same discipline as the point
//    read and the unordered scan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/hash_backend.h"
#include "txn/versioned_store.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter (binary-wide operator new/delete replacement; the
// flag gates counting to the scopes that assert on it).

// GCC cannot see that the replacement operator new allocates with malloc,
// so it flags every (inlined) delete in this TU as mismatched. The pairing
// is correct — this is the standard way to replace the global allocator.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

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

struct ModelVersion {
  Timestamp cts;
  Timestamp dts;  // kInfinityTs = live
  std::string value;
};

/// Reference model: every version ever committed, pruned exactly like the
/// store's GC, sliced by byte-wise key order for range queries.
class ScanModel {
 public:
  void Install(const std::string& key, const std::string& value,
               Timestamp commit_ts) {
    auto& versions = keys_[key];
    for (ModelVersion& v : versions) {
      if (v.dts == kInfinityTs) v.dts = commit_ts;
    }
    versions.push_back(ModelVersion{commit_ts, kInfinityTs, value});
  }

  void Delete(const std::string& key, Timestamp commit_ts) {
    auto it = keys_.find(key);
    if (it == keys_.end()) return;
    for (ModelVersion& v : it->second) {
      if (v.dts == kInfinityTs) v.dts = commit_ts;
    }
  }

  void GarbageCollect(Timestamp oldest_active) {
    for (auto& [key, versions] : keys_) {
      versions.erase(
          std::remove_if(versions.begin(), versions.end(),
                         [&](const ModelVersion& v) {
                           return v.dts != kInfinityTs &&
                                  v.dts <= oldest_active;
                         }),
          versions.end());
    }
  }

  void PurgeAfter(Timestamp max_cts) {
    for (auto& [key, versions] : keys_) {
      versions.erase(std::remove_if(versions.begin(), versions.end(),
                                    [&](const ModelVersion& v) {
                                      return v.cts > max_cts;
                                    }),
                     versions.end());
      for (ModelVersion& v : versions) {
        if (v.dts != kInfinityTs && v.dts > max_cts) v.dts = kInfinityTs;
      }
    }
  }

  /// The visible slice of [lo, hi) at read_ts, in key order (empty hi =
  /// unbounded) — the oracle a ScanRangeCommitted run must reproduce.
  std::map<std::string, std::string> RangeAt(Timestamp read_ts,
                                             const std::string& lo,
                                             const std::string& hi) const {
    std::map<std::string, std::string> result;
    for (auto it = keys_.lower_bound(lo); it != keys_.end(); ++it) {
      if (!hi.empty() && it->first >= hi) break;
      const ModelVersion* best = nullptr;
      for (const ModelVersion& v : it->second) {
        if (v.cts <= read_ts && read_ts < v.dts) {
          if (best == nullptr || v.cts > best->cts) best = &v;
        }
      }
      if (best != nullptr) result[it->first] = best->value;
    }
    return result;
  }

 private:
  std::map<std::string, std::vector<ModelVersion>> keys_;
};

std::unique_ptr<VersionedStore> MakeStore() {
  StoreOptions options;
  options.mvcc_slots = 6;
  return std::make_unique<VersionedStore>(
      0, "scan-model", std::make_unique<HashTableBackend>(), options);
}

TEST(ScanRangeModelTest, RandomizedRangesAgreeWithModel) {
  constexpr int kKeys = 40;
  constexpr int kOps = 3000;
  constexpr int kRangesPerBatch = 4;

  auto store = MakeStore();
  ScanModel model;
  Xorshift rng(20260808);

  Timestamp clock = 1;
  Timestamp watermark = 0;

  const auto key_for = [](std::uint64_t k) {
    // Zero-padded so lexicographic order == numeric order; makes random
    // bounds easy to derive from the same universe.
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key-%03u", static_cast<unsigned>(k));
    return std::string(buf);
  };

  for (int op = 0; op < kOps; ++op) {
    const std::string key = key_for(rng.Uniform(kKeys));
    const std::uint64_t dice = rng.Uniform(100);
    if (dice < 60) {
      const Timestamp ts = ++clock;
      const std::string value =
          key + "#" + std::to_string(ts) + std::string(rng.Uniform(20), 'x');
      const Status status =
          store->ApplyCommitted(key, value, false, ts, watermark);
      if (status.IsResourceExhausted()) {
        --clock;  // version array full on both sides; nothing changed
        continue;
      }
      ASSERT_TRUE(status.ok()) << status.ToString();
      model.Install(key, value, ts);
    } else if (dice < 75) {
      const Timestamp ts = ++clock;
      ASSERT_TRUE(
          store->ApplyCommitted(key, "", true, ts, watermark).ok());
      model.Delete(key, ts);
    } else if (dice < 85) {
      const Timestamp oldest = watermark + rng.Uniform(clock - watermark + 1);
      store->GarbageCollectAll(oldest);
      model.GarbageCollect(oldest);
      watermark = std::max(watermark, oldest);
    } else if (rng.Uniform(10) == 0 && clock > watermark + 2) {
      const Timestamp max_cts = clock - rng.Uniform(2);
      store->PurgeVersionsAfter(max_cts);
      model.PurgeAfter(max_cts);
    }

    for (int q = 0; q < kRangesPerBatch; ++q) {
      // Random bounds, sometimes inverted (empty result), sometimes
      // unbounded above, sometimes off the key universe entirely.
      std::string lo = key_for(rng.Uniform(kKeys + 4));
      std::string hi = rng.Uniform(4) == 0 ? std::string()
                                           : key_for(rng.Uniform(kKeys + 4));
      const Timestamp read_ts = watermark + rng.Uniform(clock - watermark + 1);

      std::map<std::string, std::string> scanned;
      std::string previous;
      ASSERT_TRUE(store
                      ->ScanRangeCommitted(
                          read_ts, lo, hi,
                          [&](std::string_view k, std::string_view v) {
                            EXPECT_TRUE(previous.empty() || previous < k)
                                << "out of order: " << previous << " then "
                                << k;
                            previous.assign(k);
                            scanned.emplace(std::string(k), std::string(v));
                            return true;
                          })
                      .ok());
      ASSERT_EQ(scanned, model.RangeAt(read_ts, lo, hi))
          << "range [" << lo << ", " << (hi.empty() ? "<end>" : hi)
          << ") at read_ts=" << read_ts << " diverged from the model";
    }
  }
}

TEST(ScanRangeModelTest, ConcurrentMutationsKeepScansOrderedAndSnapshotted) {
  constexpr int kKeys = 64;
  constexpr int kWriters = 3;
  constexpr int kScanners = 3;
  constexpr int kOpsPerWriter = 2500;
  constexpr Timestamp kPreloadTs = 1;

  auto store = MakeStore();

  const auto key_for = [](std::uint64_t k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key-%03u", static_cast<unsigned>(k));
    return std::string(buf);
  };

  // Preload every key at one timestamp: a snapshot at kPreloadTs must keep
  // seeing exactly this content no matter what commits above it.
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(store
                    ->ApplyCommitted(key_for(k), "preload", false, kPreloadTs,
                                     0)
                    .ok());
  }

  std::atomic<Timestamp> clock{kPreloadTs + 1};
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Xorshift rng(0xBEEF + w);
      for (int op = 0; op < kOpsPerWriter; ++op) {
        // Half the universe exists from the preload; the other half is
        // created live, racing the scanners through the ordered index's
        // lock-free insert path.
        const std::string key = key_for(rng.Uniform(kKeys * 2));
        const Timestamp ts = clock.fetch_add(1, std::memory_order_relaxed);
        if (rng.Uniform(5) == 0) {
          (void)store->ApplyCommitted(key, "", true, ts, kPreloadTs);
        } else {
          const std::string value = key + "#" + std::to_string(ts);
          (void)store->ApplyCommitted(key, value, false, ts, kPreloadTs);
        }
        if (rng.Uniform(64) == 0) {
          // GC must never reclaim versions a kPreloadTs reader still needs.
          store->GarbageCollectAll(kPreloadTs);
        }
      }
    });
  }

  std::vector<std::thread> scanners;
  scanners.reserve(kScanners);
  std::atomic<std::uint64_t> scans_done{0};
  for (int s = 0; s < kScanners; ++s) {
    scanners.emplace_back([&, s] {
      Xorshift rng(0xFACE + s);
      std::string previous;
      while (!stop.load(std::memory_order_acquire)) {
        const bool frozen = rng.Uniform(2) == 0;
        // Either the immutable preload snapshot (exact content check) or a
        // current snapshot (order + visibility-bound checks only).
        const Timestamp read_ts =
            frozen ? kPreloadTs
                   : clock.load(std::memory_order_relaxed) - 1;
        const std::string lo = key_for(rng.Uniform(kKeys * 2));
        const std::string hi = key_for(rng.Uniform(kKeys * 2));
        std::uint64_t seen = 0;
        previous.clear();
        const Status status = store->ScanRangeCommitted(
            read_ts, lo, hi, [&](std::string_view k, std::string_view v) {
              EXPECT_TRUE(k >= lo && k < hi) << "escaped bounds: " << k;
              EXPECT_TRUE(previous.empty() || previous < k)
                  << "out of order: " << previous << " then " << k;
              previous.assign(k);
              if (frozen) {
                EXPECT_EQ(v, "preload") << "snapshot " << read_ts
                                        << " saw a later write of " << k;
              } else if (v != "preload") {
                // value is "<key>#<cts>": visibility bound check.
                const std::size_t hash = v.find('#');
                EXPECT_NE(hash, std::string_view::npos) << v;
                EXPECT_EQ(v.substr(0, hash), k);
                EXPECT_LE(std::strtoull(v.data() + hash + 1, nullptr, 10),
                          read_ts)
                    << "saw a version from the future";
              }
              ++seen;
              return true;
            });
        EXPECT_TRUE(status.ok());
        if (frozen && lo < hi) {
          // Later writes, deletes and live-created keys are all invisible
          // at the preload snapshot, so the count is exactly the PRELOADED
          // keys inside [lo, hi).
          const auto clamp = [&](const std::string& bound) {
            return std::min<std::uint64_t>(
                std::strtoull(bound.c_str() + 4, nullptr, 10), kKeys);
          };
          EXPECT_EQ(seen, clamp(hi) - clamp(lo));
        }
        scans_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : scanners) t.join();
  EXPECT_GT(scans_done.load(), 0u);
}

TEST(ScanRangeModelTest, ScanRangeZeroAllocAfterWarmup) {
  auto store = MakeStore();
  for (int k = 0; k < 32; ++k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key-%03d", k);
    // Values fit in SSO buffers, so the scan's reusable buffer never grows.
    ASSERT_TRUE(store->ApplyCommitted(buf, "v", false, 10, 0).ok());
  }
  const std::string lo = "key-008";
  const std::string hi = "key-024";
  std::size_t seen = 0;
  const std::function<bool(std::string_view, std::string_view)> callback =
      [&seen](std::string_view, std::string_view) {
        ++seen;
        return true;
      };
  ASSERT_TRUE(store->ScanRangeCommitted(50, lo, hi, callback).ok());
  ASSERT_EQ(seen, 16u);

  AllocationCounter counter;
  ASSERT_TRUE(store->ScanRangeCommitted(50, lo, hi, callback).ok());
  EXPECT_EQ(counter.count(), 0u)
      << "ordered range scans over resident keys must not allocate";
  EXPECT_EQ(seen, 32u);

  // Unbounded-above scans share the same discipline.
  ASSERT_TRUE(store->ScanRangeCommitted(50, lo, "", callback).ok());
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_EQ(seen, 56u);
}

TEST(ScanRangeModelTest, ReloadedStoreServesOrderedScans) {
  // LoadFromBackend repoints existing ordered-index nodes at the
  // authoritative entries instead of inserting duplicates; a reloaded store
  // must scan identically.
  StoreOptions options;
  auto backend = std::make_unique<HashTableBackend>();
  HashTableBackend* backend_raw = backend.get();
  auto store = std::make_unique<VersionedStore>(0, "s", std::move(backend),
                                                options);
  ASSERT_TRUE(store->ApplyCommitted("b", "2", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("a", "1", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("c", "3", false, 10, 0).ok());
  ASSERT_TRUE(store->WriteCheckpointImages(kInfinityTs).ok());

  std::map<std::string, std::string> blobs;
  backend_raw->Scan([&](std::string_view k, std::string_view v) {
    blobs[std::string(k)] = std::string(v);
    return true;
  });
  store.reset();

  auto backend2 = std::make_unique<HashTableBackend>();
  for (const auto& [k, v] : blobs) backend2->Put(k, v, false);
  VersionedStore reloaded(0, "s", std::move(backend2), options);
  ASSERT_TRUE(reloaded.LoadFromBackend().ok());
  // A second load (recovery retry path) must not duplicate index nodes.
  ASSERT_TRUE(reloaded.LoadFromBackend().ok());

  std::vector<std::string> keys;
  ASSERT_TRUE(reloaded
                  .ScanRangeCommitted(50, "", "",
                                      [&](std::string_view k,
                                          std::string_view) {
                                        keys.emplace_back(k);
                                        return true;
                                      })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

}  // namespace
}  // namespace streamsi
