#include "txn/state_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/streamsi.h"
#include "txn/bocc_protocol.h"

namespace streamsi {
namespace {

TEST(StateContextTest, RegisterStatesAssignsSequentialIds) {
  StateContext ctx;
  EXPECT_EQ(ctx.RegisterState("a"), 0u);
  EXPECT_EQ(ctx.RegisterState("b", "/data/b"), 1u);
  EXPECT_EQ(ctx.StateCount(), 2u);
  ASSERT_NE(ctx.GetState(1), nullptr);
  EXPECT_EQ(ctx.GetState(1)->name, "b");
  EXPECT_EQ(ctx.GetState(1)->location, "/data/b");
  EXPECT_EQ(ctx.GetState(99), nullptr);
}

TEST(StateContextTest, GroupsTrackMembership) {
  StateContext ctx;
  const StateId a = ctx.RegisterState("a");
  const StateId b = ctx.RegisterState("b");
  const StateId c = ctx.RegisterState("c");
  const GroupId g1 = ctx.RegisterGroup({a, b});
  const GroupId g2 = ctx.RegisterGroup({b, c});
  EXPECT_EQ(ctx.GroupsOf(a), std::vector<GroupId>{g1});
  EXPECT_EQ(ctx.GroupsOf(b), (std::vector<GroupId>{g1, g2}));
  EXPECT_EQ(ctx.GroupsOf(c), std::vector<GroupId>{g2});
}

TEST(StateContextTest, LastCtsAdvancesMonotonically) {
  StateContext ctx;
  const GroupId g = ctx.RegisterGroup({ctx.RegisterState("a")});
  EXPECT_EQ(ctx.LastCts(g), kInitialTs);
  ctx.PublishCommit({g}, 10);
  EXPECT_EQ(ctx.LastCts(g), 10u);
  ctx.PublishCommit({g}, 5);  // no regression
  EXPECT_EQ(ctx.LastCts(g), 10u);
  ctx.SetLastCts(g, 3);  // recovery override is allowed
  EXPECT_EQ(ctx.LastCts(g), 3u);
}

// A later commit publishing while an earlier one is still in flight must
// not carry the checkpoint cut past the earlier one: if that commit then
// fails, a cut covering it would make recovery keep its partial versions.
TEST(StateContextTest, CheckpointCutStaysBelowInflightCommits) {
  StateContext ctx;
  const GroupId g =
      ctx.RegisterGroup({ctx.RegisterState("a"), ctx.RegisterState("b")});
  TxnId earlier_id = 0;
  TxnId later_id = 0;
  const int earlier = ctx.BeginTransaction(&earlier_id).value();
  const int later = ctx.BeginTransaction(&later_id).value();
  const Timestamp earlier_cts = ctx.AssignCommitTimestamp(earlier);
  const Timestamp later_cts = ctx.AssignCommitTimestamp(later);
  ASSERT_LT(earlier_cts, later_cts);
  ctx.PublishCommit({g}, later_cts);
  ctx.RetireCommitTimestamp(later);

  std::vector<std::pair<GroupId, Timestamp>> cut;
  const auto cut_of_g = [&] {
    for (const auto& [group, ts] : cut) {
      if (group == g) return ts;
    }
    return kInfinityTs;
  };
  ctx.SnapshotLastCts(&cut);
  EXPECT_EQ(cut_of_g(), later_cts) << "LastCTS itself is unclamped";
  ctx.SnapshotCheckpointCut(&cut);
  EXPECT_EQ(cut_of_g(), earlier_cts - 1)
      << "the checkpoint cut must stay below the in-flight commit";

  ctx.RetireCommitTimestamp(earlier);  // e.g. it failed and purged
  ctx.SnapshotCheckpointCut(&cut);
  EXPECT_EQ(cut_of_g(), later_cts);
  ctx.EndTransaction(earlier);
  ctx.EndTransaction(later);
}

TEST(StateContextTest, BeginAssignsUniqueIncreasingTxnIds) {
  StateContext ctx;
  TxnId id1 = 0;
  TxnId id2 = 0;
  auto s1 = ctx.BeginTransaction(&id1);
  auto s2 = ctx.BeginTransaction(&id2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(s1.value(), s2.value());
  EXPECT_LT(id1, id2);
  EXPECT_EQ(ctx.ActiveTransactionCount(), 2);
  ctx.EndTransaction(s1.value());
  ctx.EndTransaction(s2.value());
  EXPECT_EQ(ctx.ActiveTransactionCount(), 0);
}

TEST(StateContextTest, SlotExhaustion) {
  StateContext ctx;
  std::vector<int> slots;
  TxnId id;
  for (int i = 0; i < StateContext::kMaxActiveTxns; ++i) {
    auto slot = ctx.BeginTransaction(&id);
    ASSERT_TRUE(slot.ok());
    slots.push_back(slot.value());
  }
  EXPECT_TRUE(ctx.BeginTransaction(&id).status().IsResourceExhausted());
  ctx.EndTransaction(slots.back());
  EXPECT_TRUE(ctx.BeginTransaction(&id).ok());
}

TEST(StateContextTest, WaitForTxnTableChangeWakesOnTransactionEnd) {
  StateContext ctx;
  TxnId id;
  auto slot = ctx.BeginTransaction(&id);
  ASSERT_TRUE(slot.ok());
  const std::uint64_t seen = ctx.TxnTableGeneration();

  std::thread ender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ctx.EndTransaction(slot.value());
  });
  const auto start = std::chrono::steady_clock::now();
  // Generous 2 s cap: the wake must come from the EndTransaction notify,
  // not the timeout.
  const std::uint64_t now = ctx.WaitForTxnTableChange(seen, 2'000'000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ender.join();
  EXPECT_NE(now, seen);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(StateContextTest, WaitForTxnTableChangeTimesOutWhenNothingChanges) {
  StateContext ctx;
  const std::uint64_t seen = ctx.TxnTableGeneration();
  EXPECT_EQ(ctx.WaitForTxnTableChange(seen, 2'000), seen);
}

TEST(StateContextTest, WaitForTxnTableChangeReturnsImmediatelyIfAlreadyMoved) {
  StateContext ctx;
  const std::uint64_t seen = ctx.TxnTableGeneration();
  TxnId id;
  auto slot = ctx.BeginTransaction(&id);
  ASSERT_TRUE(slot.ok());
  // Generation moved before the wait: the predicate is already true.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NE(ctx.WaitForTxnTableChange(seen, 2'000'000), seen);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
  ctx.EndTransaction(slot.value());
}

TEST(StateContextTest, StateStatusFlags) {
  StateContext ctx;
  const StateId a = ctx.RegisterState("a");
  const StateId b = ctx.RegisterState("b");
  TxnId id;
  auto slot = ctx.BeginTransaction(&id);
  ASSERT_TRUE(slot.ok());

  ctx.RegisterStateAccess(*slot, a);
  ctx.RegisterStateAccess(*slot, b);
  ctx.RegisterStateAccess(*slot, a);  // idempotent
  EXPECT_EQ(ctx.StatesOf(*slot).size(), 2u);
  EXPECT_FALSE(ctx.AllRegisteredStatesReady(*slot));
  EXPECT_FALSE(ctx.AnyStateAborted(*slot));

  ctx.SetStateStatus(*slot, a, TxnStatus::kCommit);
  EXPECT_FALSE(ctx.AllRegisteredStatesReady(*slot));
  ctx.SetStateStatus(*slot, b, TxnStatus::kCommit);
  EXPECT_TRUE(ctx.AllRegisteredStatesReady(*slot));

  ctx.SetStateStatus(*slot, a, TxnStatus::kAbort);
  EXPECT_TRUE(ctx.AnyStateAborted(*slot));
  ctx.EndTransaction(*slot);
}

TEST(StateContextTest, NoRegisteredStatesIsNotReady) {
  StateContext ctx;
  TxnId id;
  auto slot = ctx.BeginTransaction(&id);
  ASSERT_TRUE(slot.ok());
  EXPECT_FALSE(ctx.AllRegisteredStatesReady(*slot));
  ctx.EndTransaction(*slot);
}

TEST(StateContextTest, ReadCtsPinnedOnFirstRead) {
  StateContext ctx;
  const StateId a = ctx.RegisterState("a");
  const GroupId g = ctx.RegisterGroup({a});
  ctx.PublishCommit({g}, 42);

  TxnId id;
  auto slot = ctx.BeginTransaction(&id);
  ASSERT_TRUE(slot.ok());
  EXPECT_FALSE(ctx.GetReadCts(*slot, g).has_value());
  EXPECT_EQ(ctx.PinReadCts(*slot, g), 42u);
  // A commit in between must not move the pin.
  ctx.PublishCommit({g}, 100);
  EXPECT_EQ(ctx.PinReadCts(*slot, g), 42u);
  EXPECT_EQ(ctx.GetReadCts(*slot, g).value(), 42u);
  ctx.EndTransaction(*slot);
}

TEST(StateContextTest, OverlapRuleUsesOlderPin) {
  // §4.3: reading states from two topologies with different LastCTS must
  // use the older version.
  StateContext ctx;
  const StateId a = ctx.RegisterState("a");
  const StateId b = ctx.RegisterState("b");
  const StateId shared = ctx.RegisterState("shared");
  const GroupId g1 = ctx.RegisterGroup({a, shared});
  const GroupId g2 = ctx.RegisterGroup({b, shared});
  ctx.PublishCommit({g1}, 10);
  ctx.PublishCommit({g2}, 20);

  TxnId id;
  auto slot = ctx.BeginTransaction(&id);
  ASSERT_TRUE(slot.ok());
  // `shared` is in both groups: the snapshot is the older LastCTS.
  EXPECT_EQ(ctx.PinReadCtsForState(*slot, shared), 10u);
  // Reading state b alone still uses g2's pin (pinned at 20 already).
  EXPECT_EQ(ctx.PinReadCtsForState(*slot, b), 20u);
  ctx.EndTransaction(*slot);
}

TEST(StateContextTest, OldestActiveVersionTracksMinimum) {
  StateContext ctx;
  ctx.clock().AdvanceTo(100);  // keep LastCTS values below clock.Now()
  const StateId a = ctx.RegisterState("a");
  const GroupId g = ctx.RegisterGroup({a});
  // No group has committed yet: any future pin would read LastCTS == 0, so
  // nothing beyond the initial versions may be reclaimed.
  EXPECT_EQ(ctx.OldestActiveVersion(), kInitialTs);

  ctx.PublishCommit({g}, 5);
  // Idle: the floor is the minimum group LastCTS — a future transaction
  // could still pin exactly 5.
  EXPECT_EQ(ctx.OldestActiveVersion(), 5u);

  TxnId id1;
  auto slot1 = ctx.BeginTransaction(&id1);
  ASSERT_TRUE(slot1.ok());
  const Timestamp pinned = ctx.PinReadCts(*slot1, g);  // pin at 5
  EXPECT_EQ(pinned, 5u);
  ctx.PublishCommit({g}, 50);
  // Active pin at 5 holds the watermark down even after LastCTS advanced.
  EXPECT_EQ(ctx.OldestActiveVersion(), 5u);
  ctx.EndTransaction(*slot1);
  EXPECT_EQ(ctx.OldestActiveVersion(), 50u);
}

TEST(StateContextTest, OldestActiveVersionBoundsTheBoccLogPrune) {
  // BOCC prunes its validation log at OldestActiveVersion(): a record
  // survives while some active snapshot lies below its commit timestamp,
  // and goes once no snapshot can miss it.
  DatabaseOptions options;
  options.protocol = ProtocolType::kBocc;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto state = (*db)->CreateState("s");
  ASSERT_TRUE(state.ok());
  const StateId sid = (*state)->id();
  TransactionManager& tm = (*db)->txn_manager();
  const CommittedTxnLog& log =
      static_cast<BoccProtocol&>((*db)->protocol()).committed_log();
  const auto commit = [&](const std::string& key) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(tm.Write((*t)->txn(), sid, key, "v").ok());
    ASSERT_TRUE((*t)->Commit().ok());
  };
  commit("k");

  auto reader = (*db)->Begin();  // pins a snapshot below every later commit
  std::string value;
  ASSERT_TRUE(tm.Read((*reader)->txn(), sid, "k", &value).ok());
  commit("k");
  constexpr std::size_t kCommits = 300;  // past one prune (every 256)
  for (std::size_t i = 1; i < kCommits; ++i) commit("w" + std::to_string(i));
  EXPECT_GE(log.size(), kCommits) << "pruned a record above a live snapshot";
  ASSERT_TRUE(tm.Write((*reader)->txn(), sid, "other", "x").ok());
  EXPECT_TRUE((*reader)->Commit().IsAborted());

  for (std::size_t i = 0; i < 256; ++i) commit("z" + std::to_string(i));
  EXPECT_LT(log.size(), 256u) << "records below every snapshot survived";
}

TEST(StateContextTest, ConcurrentMultiGroupPublishesNeverTearReaderCuts) {
  // Regression: PublishCommit publications must be mutually exclusive.
  // Overlapping publishers each bump the seqlock twice, which can leave the
  // sequence even while both publications are half-applied — a sweeping
  // reader would then validate a cut that straddles one of them. Every
  // publication below advances BOTH groups to the same cts (and LastCTS is
  // a monotonic max), so any consistent cut has equal pins for g1 and g2;
  // unequal pins mean a reader observed a torn publication.
  StateContext ctx;
  std::vector<GroupId> groups;
  for (int g = 0; g < 8; ++g) {
    groups.push_back(
        ctx.RegisterGroup({ctx.RegisterState("s" + std::to_string(g))}));
  }

  std::atomic<bool> stop{false};
  std::atomic<Timestamp> next_cts{1};
  std::atomic<bool> torn{false};

  std::vector<std::thread> publishers;
  for (int t = 0; t < 4; ++t) {
    publishers.emplace_back([&] {
      for (int i = 0; i < 20000 && !torn.load(std::memory_order_relaxed);
           ++i) {
        const Timestamp cts =
            next_cts.fetch_add(1, std::memory_order_relaxed);
        ctx.PublishCommit(groups, cts);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        TxnId id;
        auto slot = ctx.BeginTransaction(&id);
        if (!slot.ok()) continue;
        Timestamp lo = kInfinityTs;
        Timestamp hi = kInitialTs;
        for (GroupId g : groups) {
          const Timestamp pin = ctx.PinReadCts(*slot, g);
          lo = std::min(lo, pin);
          hi = std::max(hi, pin);
        }
        if (lo != hi) torn.store(true, std::memory_order_relaxed);
        ctx.EndTransaction(*slot);
      }
    });
  }
  for (auto& thread : publishers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(torn.load());
}

TEST(StateContextTest, ConcurrentBeginEndChurn) {
  StateContext ctx;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        TxnId id;
        auto slot = ctx.BeginTransaction(&id);
        if (!slot.ok()) {
          failed.store(true);
          return;
        }
        ctx.RegisterStateAccess(*slot, 0);
        ctx.EndTransaction(*slot);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(ctx.ActiveTransactionCount(), 0);
}

}  // namespace
}  // namespace streamsi
