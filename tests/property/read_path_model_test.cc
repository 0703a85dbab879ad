// Property test: the optimistic (seqlock + epoch) read path must agree with
// a naive reference model of MVCC visibility under randomized interleavings
// of installs, deletes, garbage collection, and recovery purges.
//
// The model keeps every version ever committed per key (pruned exactly like
// the store's GC: dts <= oldest_active) and answers visibility queries by
// the paper's rule cts <= read_ts < dts. Any divergence — a value the store
// lost, resurrected, or mislabeled — fails the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/hash_backend.h"
#include "txn/versioned_store.h"

namespace streamsi {
namespace {

struct ModelVersion {
  Timestamp cts;
  Timestamp dts;  // kInfinityTs = live
  std::string value;
};

class ReadPathModel {
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

  std::optional<std::string> VisibleAt(const std::string& key,
                                       Timestamp read_ts) const {
    auto it = keys_.find(key);
    if (it == keys_.end()) return std::nullopt;
    const ModelVersion* best = nullptr;
    for (const ModelVersion& v : it->second) {
      if (v.cts <= read_ts && read_ts < v.dts) {
        if (best == nullptr || v.cts > best->cts) best = &v;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->value;
  }

  std::optional<std::string> LatestLive(const std::string& key) const {
    auto it = keys_.find(key);
    if (it == keys_.end()) return std::nullopt;
    for (const ModelVersion& v : it->second) {
      if (v.dts == kInfinityTs) return v.value;
    }
    return std::nullopt;
  }

  Timestamp LatestCts(const std::string& key) const {
    auto it = keys_.find(key);
    Timestamp latest = kInitialTs;
    if (it == keys_.end()) return latest;
    for (const ModelVersion& v : it->second) {
      latest = std::max(latest, v.cts);
    }
    return latest;
  }

  std::map<std::string, std::string> SnapshotAt(Timestamp read_ts) const {
    std::map<std::string, std::string> result;
    for (const auto& [key, versions] : keys_) {
      (void)versions;
      if (auto value = VisibleAt(key, read_ts)) {
        result[key] = *value;
      }
    }
    return result;
  }

  const std::map<std::string, std::vector<ModelVersion>>& keys() const {
    return keys_;
  }

 private:
  std::map<std::string, std::vector<ModelVersion>> keys_;
};

TEST(ReadPathModelTest, RandomizedOpsAgreeWithModel) {
  constexpr int kKeys = 24;
  constexpr int kOps = 4000;
  constexpr int kQueriesPerBatch = 8;

  StoreOptions options;
  options.mvcc_slots = 6;
  VersionedStore store(0, "model", std::make_unique<HashTableBackend>(),
                       options);
  ReadPathModel model;
  Xorshift rng(20260726);

  Timestamp clock = 1;
  // GC already ran with this watermark: snapshots below it are dead, so the
  // model is only queried at read_ts >= watermark.
  Timestamp watermark = 0;

  const auto key_for = [](std::uint64_t k) {
    return "key-" + std::to_string(k);
  };

  for (int op = 0; op < kOps; ++op) {
    const std::string key = key_for(rng.Uniform(kKeys));
    const std::uint64_t dice = rng.Uniform(100);
    if (dice < 60) {
      const Timestamp ts = ++clock;
      const std::string value =
          key + "#" + std::to_string(ts) + std::string(rng.Uniform(20), 'x');
      // The store's on-demand GC inside Install uses the same watermark the
      // model prunes with, so both sides reclaim identically.
      const Status status =
          store.ApplyCommitted(key, value, false, ts, watermark);
      if (status.IsResourceExhausted()) {
        // Version array full of still-visible versions: the model cannot
        // reclaim them either — skip, nothing changed on either side.
        --clock;
        continue;
      }
      ASSERT_TRUE(status.ok()) << status.ToString();
      model.Install(key, value, ts);
    } else if (dice < 75) {
      const Timestamp ts = ++clock;
      ASSERT_TRUE(
          store.ApplyCommitted(key, "", true, ts, watermark).ok());
      model.Delete(key, ts);
    } else if (dice < 85) {
      const Timestamp oldest = watermark + rng.Uniform(clock - watermark + 1);
      store.GarbageCollectAll(oldest);
      model.GarbageCollect(oldest);
      watermark = std::max(watermark, oldest);
    } else {
      // Occasionally exercise the recovery purge against the model.
      if (rng.Uniform(10) == 0 && clock > watermark + 2) {
        // The clock is NOT rolled back after the purge: reusing a purged
        // timestamp could create two versions with equal cts, where store
        // and model may legitimately pick different winners.
        const Timestamp max_cts = clock - rng.Uniform(2);
        store.PurgeVersionsAfter(max_cts);
        model.PurgeAfter(max_cts);
      }
    }

    // Point queries at random valid snapshots.
    for (int q = 0; q < kQueriesPerBatch; ++q) {
      const std::string probe = key_for(rng.Uniform(kKeys));
      const Timestamp read_ts = watermark + rng.Uniform(clock - watermark + 1);
      std::string value;
      const Status status = store.ReadCommitted(read_ts, probe, &value);
      const auto expected = model.VisibleAt(probe, read_ts);
      if (expected.has_value()) {
        ASSERT_TRUE(status.ok())
            << "store lost visible version: key=" << probe
            << " read_ts=" << read_ts << " expected=" << *expected;
        ASSERT_EQ(value, *expected)
            << "wrong version: key=" << probe << " read_ts=" << read_ts;
      } else {
        ASSERT_TRUE(status.IsNotFound())
            << "store resurrected version: key=" << probe
            << " read_ts=" << read_ts << " got=" << value;
      }

      // A read at the newest timestamp must agree with the model's live
      // version.
      std::string latest;
      const Status latest_status =
          store.ReadCommitted(kInfinityTs - 1, probe, &latest);
      const auto expected_latest = model.LatestLive(probe);
      if (expected_latest.has_value()) {
        ASSERT_TRUE(latest_status.ok()) << "lost live version of " << probe;
        ASSERT_EQ(latest, *expected_latest);
      } else {
        ASSERT_TRUE(latest_status.IsNotFound())
            << "phantom live version of " << probe << ": " << latest;
      }

      // The newest version the store holds is the model's newest.
      const Timestamp newest = model.LatestCts(probe);
      if (newest != kInitialTs) {
        std::string at_newest;
        ASSERT_TRUE(store.ReadCommitted(newest, probe, &at_newest).ok())
            << "lost the newest version of " << probe;
        const auto expected_newest = model.VisibleAt(probe, newest);
        ASSERT_TRUE(expected_newest.has_value());
        ASSERT_EQ(at_newest, *expected_newest);
      }
    }
  }

  // Final full-scan comparison at a fresh snapshot.
  const Timestamp read_ts = clock;
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE(store
                  .ScanCommitted(read_ts,
                                 [&](std::string_view k, std::string_view v) {
                                   scanned[std::string(k)] = std::string(v);
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(scanned, model.SnapshotAt(read_ts));
}

TEST(ReadPathModelTest, OptimisticAndLatchedReadsAgreeAfterReload) {
  // Decode/recovery produces MvccObjects through a different construction
  // path; the optimistic read protocol must behave identically on them.
  StoreOptions options;
  auto backend = std::make_unique<HashTableBackend>();
  HashTableBackend* backend_raw = backend.get();
  auto store = std::make_unique<VersionedStore>(0, "s", std::move(backend),
                                                options);
  ASSERT_TRUE(store->ApplyCommitted("a", "1", false, 10, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("a", "2", false, 20, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("b", "3", false, 30, 0).ok());
  ASSERT_TRUE(store->ApplyCommitted("b", "", true, 40, 0).ok());
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

  std::string value;
  ASSERT_TRUE(reloaded.ReadCommitted(15, "a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(reloaded.ReadCommitted(25, "a", &value).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE(reloaded.ReadCommitted(kInfinityTs - 1, "a", &value).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE(reloaded.ReadCommitted(35, "b", &value).ok());
  EXPECT_EQ(value, "3");
  EXPECT_TRUE(
      reloaded.ReadCommitted(kInfinityTs - 1, "b", &value).IsNotFound());
  EXPECT_TRUE(reloaded.ReadCommitted(45, "b", &value).IsNotFound());
  EXPECT_EQ(reloaded.LatestModification("a"), 20u);
  EXPECT_EQ(reloaded.LatestModification("b"), 40u);
}

}  // namespace
}  // namespace streamsi
