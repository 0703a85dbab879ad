#include "mvcc/mvcc_object.h"

#include <gtest/gtest.h>

#include "common/coding.h"

namespace streamsi {
namespace {

TEST(MvccObjectTest, EmptyHasNoVisibleVersion) {
  MvccObject object(4);
  std::string value;
  EXPECT_FALSE(object.GetVisible(100, &value));
  EXPECT_EQ(object.LatestModification(), kInitialTs);
  EXPECT_FALSE(object.HasLiveVersion());
}

TEST(MvccObjectTest, InstallMakesVersionVisibleFromCts) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  std::string value;
  EXPECT_FALSE(object.GetVisible(9, &value));  // before cts
  ASSERT_TRUE(object.GetVisible(10, &value));
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(object.GetVisible(1000, &value));
  EXPECT_EQ(value, "v1");
}

TEST(MvccObjectTest, NewVersionShadowsOldForNewReaders) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.Install("v2", 20, 0).ok());
  std::string value;
  // Snapshot between the two commits still sees v1 (time travel).
  ASSERT_TRUE(object.GetVisible(15, &value));
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(object.GetVisible(20, &value));
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(object.LatestModification(), 20u);
  EXPECT_EQ(object.VersionCount(), 2);
}

TEST(MvccObjectTest, DeleteEndsVisibility) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.MarkDeleted(30).ok());
  std::string value;
  ASSERT_TRUE(object.GetVisible(29, &value));  // still sees it
  EXPECT_FALSE(object.GetVisible(30, &value));  // deleted from 30 on
  EXPECT_FALSE(object.HasLiveVersion());
}

TEST(MvccObjectTest, DeleteWithoutLiveVersionIsNotFound) {
  MvccObject object(4);
  EXPECT_TRUE(object.MarkDeleted(5).IsNotFound());
  ASSERT_TRUE(object.Install("v", 10, 0).ok());
  ASSERT_TRUE(object.MarkDeleted(20).ok());
  EXPECT_TRUE(object.MarkDeleted(30).IsNotFound());
}

TEST(MvccObjectTest, ReinsertAfterDelete) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.MarkDeleted(20).ok());
  ASSERT_TRUE(object.Install("v2", 30, 0).ok());
  std::string value;
  EXPECT_FALSE(object.GetVisible(25, &value));  // gap
  ASSERT_TRUE(object.GetVisible(30, &value));
  EXPECT_EQ(value, "v2");
}

TEST(MvccObjectTest, GcReclaimsInvisibleVersions) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.Install("v2", 20, 0).ok());
  ASSERT_TRUE(object.Install("v3", 30, 0).ok());
  EXPECT_EQ(object.VersionCount(), 3);
  // Oldest active snapshot is 25: v1 ([10,20)) is invisible, v2 ([20,30))
  // is still needed.
  EXPECT_EQ(object.GarbageCollect(25), 1);
  EXPECT_EQ(object.VersionCount(), 2);
  std::string value;
  ASSERT_TRUE(object.GetVisible(25, &value));
  EXPECT_EQ(value, "v2");
}

TEST(MvccObjectTest, OnDemandGcWhenArrayFull) {
  MvccObject object(2);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.Install("v2", 20, 0).ok());
  // Array full. Installing with oldest_active=25 reclaims v1's slot.
  ASSERT_TRUE(object.Install("v3", 30, 25).ok());
  std::string value;
  ASSERT_TRUE(object.GetVisible(30, &value));
  EXPECT_EQ(value, "v3");
  EXPECT_EQ(object.VersionCount(), 2);
}

TEST(MvccObjectTest, InstallFailsWhenNoReclaimableSlot) {
  MvccObject object(2);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.Install("v2", 20, 0).ok());
  // Oldest active snapshot 5 still needs everything.
  EXPECT_TRUE(object.Install("v3", 30, 5).IsResourceExhausted());
}

TEST(MvccObjectTest, AdaptiveGrowthKeepsPinnedVersionsInstallable) {
  MvccObject object(2);
  // A reader pinned at snapshot 0 keeps every version visible — nothing is
  // reclaimable, so each full array must grow (2 -> 4 -> 8) instead of
  // failing the install.
  for (Timestamp ts = 1; ts <= 8; ++ts) {
    ASSERT_TRUE(object
                    .Install("v" + std::to_string(ts), ts * 10,
                             /*oldest_active=*/kInitialTs, /*grow_limit=*/8)
                    .ok())
        << "ts " << ts;
  }
  EXPECT_EQ(object.capacity(), 8);
  EXPECT_EQ(object.VersionCount(), 8);
  // The full history stays visible across the growths.
  std::string value;
  for (Timestamp ts = 1; ts <= 8; ++ts) {
    ASSERT_TRUE(object.GetVisible(ts * 10, &value));
    EXPECT_EQ(value, "v" + std::to_string(ts));
  }
  // At the grow limit with everything still pinned: the install fails...
  EXPECT_TRUE(object.Install("v9", 90, kInitialTs, 8).IsResourceExhausted());
  // ...and succeeds at unchanged capacity once the pin advances.
  ASSERT_TRUE(object.Install("v9", 90, /*oldest_active=*/85, 8).ok());
  EXPECT_EQ(object.capacity(), 8);
}

TEST(MvccObjectTest, DefaultGrowLimitDisablesGrowth) {
  MvccObject object(2);
  ASSERT_TRUE(object.Install("v1", 10, kInitialTs).ok());
  ASSERT_TRUE(object.Install("v2", 20, kInitialTs).ok());
  EXPECT_TRUE(object.Install("v3", 30, kInitialTs).IsResourceExhausted());
  EXPECT_EQ(object.capacity(), 2);
}

TEST(MvccObjectTest, GrowthPrefersGcWhenVersionsAreReclaimable) {
  MvccObject object(2);
  ASSERT_TRUE(object.Install("v1", 10, kInitialTs, 8).ok());
  ASSERT_TRUE(object.Install("v2", 20, kInitialTs, 8).ok());
  // v1 ([10,20)) is below the watermark: GC must make room — no growth.
  ASSERT_TRUE(object.Install("v3", 30, /*oldest_active=*/25, 8).ok());
  EXPECT_EQ(object.capacity(), 2);
  EXPECT_EQ(object.VersionCount(), 2);
}

TEST(MvccObjectTest, GrownObjectSurvivesEncodeDecodeRoundTrip) {
  MvccObject object(2);
  for (Timestamp ts = 1; ts <= 12; ++ts) {
    ASSERT_TRUE(object
                    .Install("v" + std::to_string(ts), ts * 10, kInitialTs,
                             /*grow_limit=*/16)
                    .ok());
  }
  ASSERT_EQ(object.capacity(), 16);
  std::string blob;
  object.EncodeTo(&blob);

  // Decode with a SMALLER configured default (the store's mvcc_slots): the
  // blob's recorded capacity must win, restoring every version.
  auto decoded = MvccObject::Decode(blob, /*min_capacity=*/8);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->capacity(), 16);
  EXPECT_EQ(decoded->VersionCount(), 12);
  std::string value;
  for (Timestamp ts = 1; ts <= 12; ++ts) {
    ASSERT_TRUE(decoded->GetVisible(ts * 10, &value)) << "ts " << ts;
    EXPECT_EQ(value, "v" + std::to_string(ts));
  }
  // PurgeAfter still works on the grown, decoded array (recovery path).
  EXPECT_EQ(decoded->PurgeAfter(55), 7);
  ASSERT_TRUE(decoded->GetVisible(1000, &value));
  EXPECT_EQ(value, "v5");  // reopened as the live version
}

TEST(MvccObjectTest, DecodeRejectsOverwideCapacity) {
  // A corrupt blob claiming a capacity beyond the slot-mask width must not
  // decode.
  std::string blob;
  PutVarint32(&blob, 65);  // capacity
  PutVarint32(&blob, 0);   // count
  EXPECT_FALSE(MvccObject::Decode(blob, 8).ok());
}

TEST(MvccObjectTest, PurgeAfterRemovesUncommittedTail) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.Install("v2", 20, 0).ok());
  // Simulate recovery where the group commit for cts=20 never finished.
  EXPECT_EQ(object.PurgeAfter(15), 1);
  std::string value;
  ASSERT_TRUE(object.GetVisible(100, &value));
  EXPECT_EQ(value, "v1");  // v1 is live again (dts reopened)
  EXPECT_TRUE(object.HasLiveVersion());
  EXPECT_EQ(object.LatestModification(), 10u);
}

TEST(MvccObjectTest, PurgeAfterReopensDeletedVersion) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.MarkDeleted(20).ok());
  EXPECT_EQ(object.PurgeAfter(15), 0);  // nothing installed after 15...
  std::string value;
  // ...but the delete at 20 is also rolled back.
  ASSERT_TRUE(object.GetVisible(100, &value));
  EXPECT_EQ(value, "v1");
}

TEST(MvccObjectTest, EncodeDecodeRoundTrip) {
  MvccObject object(8);
  ASSERT_TRUE(object.Install("first", 5, 0).ok());
  ASSERT_TRUE(object.Install("second", 9, 0).ok());
  std::string blob;
  object.EncodeTo(&blob);

  auto decoded = MvccObject::Decode(blob, 8);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::string value;
  ASSERT_TRUE(decoded->GetVisible(7, &value));
  EXPECT_EQ(value, "first");
  ASSERT_TRUE(decoded->GetVisible(9, &value));
  EXPECT_EQ(value, "second");
  EXPECT_EQ(decoded->LatestModification(), 9u);
  EXPECT_EQ(decoded->VersionCount(), 2);
}

TEST(MvccObjectTest, DecodeGarbageFails) {
  EXPECT_FALSE(MvccObject::Decode("not a blob \xFF\xFF\xFF\xFF\xFF", 8).ok());
}

TEST(MvccObjectTest, CapacityClamped) {
  // Minimum is 2: with a single slot an update could never install its new
  // version next to the still-live predecessor.
  MvccObject tiny(0);
  EXPECT_EQ(tiny.capacity(), 2);
  MvccObject one(1);
  EXPECT_EQ(one.capacity(), 2);
  MvccObject huge(1000);
  EXPECT_EQ(huge.capacity(), 64);
}

TEST(MvccObjectTest, HeadersReflectLifetimes) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.Install("v2", 20, 0).ok());
  auto headers = object.Headers();
  ASSERT_EQ(headers.size(), 2u);
  bool found_closed = false;
  bool found_open = false;
  for (const auto& h : headers) {
    if (h.cts == 10 && h.dts == 20) found_closed = true;
    if (h.cts == 20 && h.dts == kInfinityTs) found_open = true;
  }
  EXPECT_TRUE(found_closed);
  EXPECT_TRUE(found_open);
}

class MvccCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(MvccCapacitySweep, LongUpdateChainWithGc) {
  const int capacity = GetParam();
  MvccObject object(capacity);
  // Continuously advancing oldest_active lets on-demand GC keep up
  // regardless of capacity.
  for (Timestamp ts = 1; ts <= 200; ++ts) {
    ASSERT_TRUE(
        object.Install("v" + std::to_string(ts), ts * 10, (ts - 1) * 10).ok())
        << "capacity " << capacity << " ts " << ts;
  }
  std::string value;
  ASSERT_TRUE(object.GetVisible(2000, &value));
  EXPECT_EQ(value, "v200");
  EXPECT_LE(object.VersionCount(), capacity);
}

INSTANTIATE_TEST_SUITE_P(Capacities, MvccCapacitySweep,
                         ::testing::Values(2, 3, 4, 8, 16, 64));

// Regression: a slot freed by PurgeAfter keeps no stale "live" header. The
// next Install must still terminate the real live version — before the fix,
// Install could mistake its freshly acquired slot (carrying the purged
// version's open dts) for the live one and leave two live versions behind.
TEST(MvccObjectTest, InstallAfterPurgeTerminatesRealLiveVersion) {
  MvccObject object(4);
  ASSERT_TRUE(object.Install("v1", 10, 0).ok());
  ASSERT_TRUE(object.Install("v2", 20, 0).ok());   // v1 dts=20
  ASSERT_TRUE(object.Install("v3", 30, 0).ok());   // v2 dts=30
  EXPECT_EQ(object.PurgeAfter(25), 1);             // drops v3, reopens v2
  ASSERT_TRUE(object.Install("v4", 40, 0).ok());   // must close v2
  int live_count = 0;
  for (const VersionHeader& h : object.Headers()) {
    if (h.dts == kInfinityTs) ++live_count;
  }
  EXPECT_EQ(live_count, 1) << "exactly one live version after reinstall";
  std::string value;
  ASSERT_TRUE(object.GetVisible(35, &value));
  EXPECT_EQ(value, "v2");  // v2 lived in [20, 40)
  ASSERT_TRUE(object.GetVisible(45, &value));
  EXPECT_EQ(value, "v4");
}

// The optimistic seqlock accessors must agree with the latched ones when no
// writer interferes, for every probe kind.
TEST(MvccObjectTest, OptimisticReadsAgreeWithLatchedReads) {
  MvccObject object(8);
  ASSERT_TRUE(object.Install("a", 10, 0).ok());
  ASSERT_TRUE(object.Install("b", 20, 0).ok());
  ASSERT_TRUE(object.MarkDeleted(30).ok());

  std::string value;
  EXPECT_EQ(object.TryGetVisible(15, &value), MvccObject::ReadResult::kHit);
  EXPECT_EQ(value, "a");
  EXPECT_EQ(object.TryGetVisible(25, &value), MvccObject::ReadResult::kHit);
  EXPECT_EQ(value, "b");
  EXPECT_EQ(object.TryGetVisible(35, &value), MvccObject::ReadResult::kMiss);
  EXPECT_EQ(object.TryGetVisible(5, &value), MvccObject::ReadResult::kMiss);

  // Deleted: no version is visible at the newest timestamp.
  EXPECT_EQ(object.TryGetVisible(kInfinityTs - 1, &value),
            MvccObject::ReadResult::kMiss);
  EXPECT_FALSE(object.GetVisible(kInfinityTs - 1, &value));

  ASSERT_TRUE(object.Install("c", 40, 0).ok());
  EXPECT_EQ(object.TryGetVisible(kInfinityTs - 1, &value),
            MvccObject::ReadResult::kHit);
  EXPECT_EQ(value, "c");
  ASSERT_TRUE(object.GetVisible(kInfinityTs - 1, &value));
  EXPECT_EQ(value, "c");
}

}  // namespace
}  // namespace streamsi
