// StreamTxnContext unit tests: shared transactions across operators,
// idempotent BOT, batch poisoning after mid-batch aborts, and the
// participant-snapshot race regression.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/streamsi.h"
#include "stream/txn_context.h"

namespace streamsi {
namespace {

class StreamTxnContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    a_ = (*db_->CreateState("a"))->id();
    b_ = (*db_->CreateState("b"))->id();
    db_->CreateGroup({a_, b_});
    ctx_ = std::make_unique<StreamTxnContext>(&db_->txn_manager());
    ctx_->AddParticipant(a_);
    ctx_->AddParticipant(b_);
  }

  std::unique_ptr<Database> db_;
  StateId a_;
  StateId b_;
  std::unique_ptr<StreamTxnContext> ctx_;
};

TEST_F(StreamTxnContextTest, BeginIsIdempotent) {
  ASSERT_TRUE(ctx_->Begin().ok());
  auto t1 = ctx_->Current();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(ctx_->Begin().ok());  // same transaction
  auto t2 = ctx_->Current();
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ((*t1)->id(), (*t2)->id());
  ASSERT_TRUE(ctx_->CommitAll().ok());
}

TEST_F(StreamTxnContextTest, ParticipantsPreRegistered) {
  ASSERT_TRUE(ctx_->Begin().ok());
  auto txn = ctx_->Current();
  ASSERT_TRUE(txn.ok());
  // Both states registered at BOT: committing only state a must NOT make
  // this caller the coordinator.
  ASSERT_TRUE(
      db_->txn_manager().Write(**txn, a_, "k", "v").ok());
  ASSERT_TRUE(ctx_->CommitState(a_).ok());
  EXPECT_TRUE(ctx_->HasActive()) << "txn finished before state b committed";
  ASSERT_TRUE(ctx_->CommitState(b_).ok());
  EXPECT_FALSE(ctx_->HasActive());
}

TEST_F(StreamTxnContextTest, PoisonedBatchDropsWritesUntilNextBot) {
  ASSERT_TRUE(ctx_->Begin().ok());
  {
    auto txn = ctx_->Current();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db_->txn_manager().Write(**txn, a_, "k1", "v").ok());
    // The transaction dies underneath the context (as a wait-die victim
    // would).
    ASSERT_TRUE(db_->txn_manager().Abort(**txn).ok());
  }
  // Subsequent writes of the same batch must be refused.
  auto poisoned = ctx_->Current();
  EXPECT_FALSE(poisoned.ok());
  EXPECT_TRUE(poisoned.status().IsAborted());

  // The batch-ending COMMIT punctuation clears the poison...
  ASSERT_TRUE(ctx_->CommitState(a_).ok());
  ASSERT_TRUE(ctx_->CommitState(b_).ok());
  // ...and the next batch proceeds normally.
  ASSERT_TRUE(ctx_->Begin().ok());
  auto fresh = ctx_->Current();
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(db_->txn_manager().Write(**fresh, a_, "k2", "v2").ok());
  ASSERT_TRUE(ctx_->CommitAll().ok());

  // Only the second batch's write survived.
  auto check = db_->Begin();
  std::string value;
  EXPECT_TRUE(
      db_->txn_manager().Read((*check)->txn(), a_, "k1", &value).IsNotFound());
  EXPECT_TRUE(db_->txn_manager().Read((*check)->txn(), a_, "k2", &value).ok());
  ASSERT_TRUE((*check)->Commit().ok());
}

TEST_F(StreamTxnContextTest, CommitStateWithoutTxnIsNoop) {
  EXPECT_TRUE(ctx_->CommitState(a_).ok());
  EXPECT_TRUE(ctx_->AbortState(a_).ok());
  EXPECT_TRUE(ctx_->CommitAll().ok());
}

TEST_F(StreamTxnContextTest, AbortStateAbortsGlobally) {
  ASSERT_TRUE(ctx_->Begin().ok());
  auto txn = ctx_->Current();
  ASSERT_TRUE(db_->txn_manager().Write(**txn, a_, "k", "v").ok());
  ASSERT_TRUE(db_->txn_manager().Write(**txn, b_, "k", "v").ok());
  ASSERT_TRUE(ctx_->AbortState(b_).ok());
  EXPECT_FALSE(ctx_->HasActive());

  auto check = db_->Begin();
  std::string value;
  EXPECT_TRUE(
      db_->txn_manager().Read((*check)->txn(), a_, "k", &value).IsNotFound());
  ASSERT_TRUE((*check)->Commit().ok());
}

TEST_F(StreamTxnContextTest, ParticipantSnapshotRacesWithRegistration) {
  // PR 3 regression (TSan-gated via ci.sh): participants() used to return
  // a const reference to the vector AddParticipant mutates under the lock,
  // so an operator enumerating participants while another lane was still
  // wiring its ToTable read a reallocating vector. The snapshot copy must
  // make concurrent registration + enumeration race-free.
  constexpr StateId kFirst = 100;
  constexpr StateId kCount = 300;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> enumerated{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t sum = 0;
      for (StateId s : ctx_->participants()) sum += s;
      enumerated.fetch_add(sum, std::memory_order_relaxed);
    }
  });
  for (StateId s = kFirst; s < kFirst + kCount; ++s) {
    ctx_->AddParticipant(s);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ctx_->participants().size(), kCount + 2u);  // a_, b_ + new ones
}

TEST(WatermarkTest, LatestModificationTracksDeletes) {
  // Direct unit check of the FCW watermark semantics the property tests
  // exercised end-to-end.
  DatabaseOptions options;
  auto db = Database::Open(options);
  auto* store = (*db)->CreateState("s").value();

  ASSERT_TRUE(store->ApplyCommitted("k", "v", false, 10, 0).ok());
  EXPECT_EQ(store->LatestModification("k"), 10u);
  ASSERT_TRUE(store->ApplyCommitted("k", "", true, 20, 0).ok());
  EXPECT_EQ(store->LatestModification("k"), 20u)
      << "a committed delete is a modification";
  // GC may reclaim the deleted version; the watermark must survive.
  store->GarbageCollectAll(/*oldest_active=*/30);
  EXPECT_EQ(store->LatestModification("k"), 20u);
  // No-op delete of a missing key still counts (write-write conflict).
  ASSERT_TRUE(store->ApplyCommitted("ghost", "", true, 25, 0).ok());
  EXPECT_EQ(store->LatestModification("ghost"), 25u);
  // Recovery purge rolls the watermark back below the purge point. (GC
  // already reclaimed the version that carried ts=10, so the exact value
  // cannot be reconstructed — only the bound matters, and recovery reloads
  // objects from the backend anyway.)
  store->PurgeVersionsAfter(15);
  EXPECT_LE(store->LatestModification("k"), 15u);
}

}  // namespace
}  // namespace streamsi
