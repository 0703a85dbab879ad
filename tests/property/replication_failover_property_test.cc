// Two-node failover torture: a replication primary runs the full crash
// workload (committers + checkpointer + LSM flushes + background shipping)
// against FaultEnv until a seeded power cut kills it mid-batch, mid-ship
// or mid-checkpoint; the surviving bytes are drained to the follower and
// the follower is PROMOTED. The verifier then checks the failover
// contract on the promoted node:
//
//   1. Every commit the dead primary ACKED is visible (zero acked loss) —
//      acked means synced, synced bytes survive the cut, and
//      LogShipper::DrainFiles ships every surviving valid frame before
//      Promote() replays it.
//   2. Both states of the group agree on every key — shipped group
//      commits stay atomic across the cut (a record ships whole or not at
//      all; the applier never applies half a frame).
//   3. Visible values were actually written (bounded by the last attempt)
//      — torn bytes never invent data on the follower either.
//   4. The promoted node accepts writes (it is a real database again).
//   5. The promoted node restarts from its own directory: reopened as a
//      standalone database, it passes the same checks and still holds
//      its post-promotion write.
//
//   STREAMSI_TORTURE_SEEDS=100 ./build/property_replication_failover_property_test
//
// The negative control proves the harness has teeth: shipping a torn
// frame with CRC verification disabled (Options::verify_shipped_crc =
// false — applying unverified bytes is exactly the corruption the CRC
// exists to stop) must make this verifier report the divergence.

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_env.h"
#include "common/random.h"
#include "core/database.h"
#include "replication/log_shipper.h"
#include "replication/transport.h"

namespace streamsi {
namespace {

constexpr int kCommitters = 3;
constexpr int kMaxCommitsPerThread = 4000;  // safety cap, not the target
constexpr char kPrimaryDir[] = "/db";
constexpr char kBaseKey[] = "base";
constexpr char kFollowerDir[] = "/follower";

DatabaseOptions PrimaryTortureOptions(Env* env, ShipTransport* transport) {
  DatabaseOptions options;
  options.protocol = ProtocolType::kMvcc;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  options.backend_options.env = env;
  // Tiny memtables: constant sealing + background flushes, so the cut also
  // lands inside SSTable writes and manifest publications.
  options.backend_options.memtable_bytes = 2 * 1024;
  options.backend_options.l0_compaction_trigger = 2;
  options.backend_options.flush_retry_attempts = 1;
  options.backend_options.flush_retry_backoff_ms = 1;
  options.env = env;
  options.base_dir = kPrimaryDir;
  options.replication.role = ReplicationRole::kPrimary;
  options.replication.transport = transport;
  options.replication.ship_interval_ms = 1;
  return options;
}

DatabaseOptions FollowerTortureOptions(Env* env, bool verify_crc = true,
                                       bool manual_pump = false) {
  DatabaseOptions options;
  options.protocol = ProtocolType::kMvcc;
  options.backend = BackendType::kLsm;
  options.backend_options.sync_mode = SyncMode::kFsync;
  options.backend_options.env = env;
  options.env = env;
  options.base_dir = kFollowerDir;
  options.replication.role = ReplicationRole::kFollower;
  options.replication.apply_interval_ms = 1;
  options.replication.verify_shipped_crc = verify_crc;
  options.replication.manual_pump = manual_pump;
  return options;
}

/// What the primary's run observed before the lights went out.
struct TortureRun {
  std::vector<int> last_acked = std::vector<int>(kCommitters, -1);
  std::vector<int> last_attempted = std::vector<int>(kCommitters, -1);
  StateId a = kInvalidStateId;
  StateId b = kInvalidStateId;
  GroupId g = kInvalidGroupId;
};

/// Drives committers + checkpoints on the primary until the armed power
/// cut fires; the shipper streams to the follower env underneath.
TortureRun RunPrimaryUntilPowerCut(FaultEnv* env, ShipTransport* transport,
                                   Xorshift* rng) {
  TortureRun run;
  auto db = Database::Open(PrimaryTortureOptions(env, transport));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return run;
  run.a = (*(*db)->CreateState("a"))->id();
  run.b = (*(*db)->CreateState("b"))->id();
  run.g = (*db)->CreateGroup({run.a, run.b});
  EXPECT_TRUE((*db)->Recover().ok());
  // A key below a checkpoint cut from the start: after the failover its
  // only copy is an image, so it checks that promotion wrote images.
  {
    auto t = (*db)->Begin();
    EXPECT_TRUE(t.ok());
    EXPECT_TRUE(
        (*db)->txn_manager().Write((*t)->txn(), run.a, kBaseKey, "1").ok());
    EXPECT_TRUE(
        (*db)->txn_manager().Write((*t)->txn(), run.b, kBaseKey, "1").ok());
    EXPECT_TRUE((*t)->Commit().ok());
  }
  EXPECT_TRUE((*db)->Checkpoint().ok());
  // Arm AFTER setup: the cut lands inside the commit/checkpoint/ship
  // workload, not inside directory scaffolding.
  env->CutPowerAfterOps(30 + rng->Uniform(2500));

  std::atomic<bool> stop{false};
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)(*db)->Checkpoint();  // failures expected once power dies
    }
  });
  std::vector<std::thread> committers;
  for (int w = 0; w < kCommitters; ++w) {
    committers.emplace_back([&, w] {
      const std::string key = "w" + std::to_string(w);
      for (int i = 0; i < kMaxCommitsPerThread; ++i) {
        if (env->PowerIsCut()) break;
        run.last_attempted[static_cast<std::size_t>(w)] = i;
        const std::string value = std::to_string(i);
        auto t = (*db)->Begin();
        if (!t.ok()) continue;
        if (!(*db)->txn_manager().Write((*t)->txn(), run.a, key, value).ok()) {
          continue;  // handle destructor aborts the txn
        }
        if (!(*db)->txn_manager().Write((*t)->txn(), run.b, key, value).ok()) {
          continue;
        }
        if ((*t)->Commit().ok()) {
          run.last_acked[static_cast<std::size_t>(w)] = i;
        }
      }
    });
  }
  for (auto& thread : committers) thread.join();
  stop.store(true, std::memory_order_release);
  checkpointer.join();
  // The Database destructor is the "crash": its shutdown IO (including the
  // shipper's final drain round) fails against the cut power.
  return run;
}

/// Reads `key` from `state` in a fresh snapshot; "" = not found.
std::string ReadOne(Database& db, StateId state, const std::string& key) {
  auto t = db.Begin();
  EXPECT_TRUE(t.ok());
  std::string value;
  const Status status = db.txn_manager().Read((*t)->txn(), state, key, &value);
  EXPECT_TRUE((*t)->Commit().ok());
  if (status.IsNotFound()) return "";
  EXPECT_TRUE(status.ok()) << status.ToString();
  return value;
}

/// The failover verifier: checks the contract on a follower database
/// (promoted or not). Used by the main property AND by the negative
/// control, which asserts it catches deliberately shipped corruption.
void VerifyFollower(Database& follower, const TortureRun& run,
                    const std::string& repro, bool* violation_detected) {
  *violation_detected = false;
  VersionedStore* store_a = follower.FindState("a");
  VersionedStore* store_b = follower.FindState("b");
  ASSERT_NE(store_a, nullptr) << repro;
  ASSERT_NE(store_b, nullptr) << repro;
  EXPECT_EQ(store_a->id(), run.a) << repro;
  EXPECT_EQ(store_b->id(), run.b) << repro;

  for (int w = 0; w < kCommitters; ++w) {
    const std::string key = "w" + std::to_string(w);
    const std::string va = ReadOne(follower, run.a, key);
    const std::string vb = ReadOne(follower, run.b, key);
    if (va != vb) {
      *violation_detected = true;
      ADD_FAILURE() << "states diverged for " << key << ": '" << va
                    << "' vs '" << vb << "'\n"
                    << repro;
    }
    const int acked = run.last_acked[static_cast<std::size_t>(w)];
    const int attempted = run.last_attempted[static_cast<std::size_t>(w)];
    int visible = -1;
    if (!va.empty()) {
      visible = std::atoi(va.c_str());
      EXPECT_GE(visible, 0) << repro;
      if (visible > attempted) {
        *violation_detected = true;
        ADD_FAILURE() << "invented value " << va << " was never written to "
                      << key << "\n"
                      << repro;
      }
    }
    if (visible < acked) {
      // An acked commit vanished across failover.
      *violation_detected = true;
      ADD_FAILURE() << "acked commit lost across failover: " << key
                    << " acked=" << acked << " visible=" << visible << "\n"
                    << repro;
    }
  }
  EXPECT_GE(follower.context().clock().Now(), follower.context().LastCts(run.g))
      << repro;
}

class ReplicationFailoverTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReplicationFailoverTest, AckedCommitsSurvivePrimaryPowerCut) {
  const std::uint64_t seed = GetParam();
  FaultEnv primary_env(seed);
  FaultEnv follower_env(seed * 7919u + 13u);
  EnvFileTransport transport(&follower_env, kFollowerDir);
  Xorshift rng(seed * 2654435761u + 1);

  // The follower runs CONCURRENTLY with the doomed primary, continuously
  // replaying whatever ships.
  auto follower = Database::Open(FollowerTortureOptions(&follower_env));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();

  const TortureRun run =
      RunPrimaryUntilPowerCut(&primary_env, &transport, &rng);
  primary_env.CrashAndRecoverFs(FaultEnv::CrashMode::kKeepRandomPrefix);

  const std::string repro =
      "seed=" + std::to_string(seed) +
      " (repro: STREAMSI_TORTURE_SEEDS with this seed) primary: " +
      primary_env.DescribeSchedule();

  // Failover: drain every surviving valid frame off the dead primary's
  // disk (a fresh transport — the old one's cached handles died with it),
  // then promote.
  EnvFileTransport drain_transport(&follower_env, kFollowerDir);
  ASSERT_TRUE(LogShipper::DrainFiles(
                  &primary_env, std::string(kPrimaryDir) + "/group_commits.log",
                  std::string(kPrimaryDir) + "/catalog.log", &drain_transport)
                  .ok())
      << repro;
  ASSERT_TRUE((*follower)->Promote().ok()) << repro;

  bool violation_detected = false;
  VerifyFollower(**follower, run, repro, &violation_detected);
  EXPECT_FALSE(violation_detected) << repro;

  // The promoted node is a writable database again.
  {
    auto t = (*follower)->Begin();
    ASSERT_TRUE(t.ok()) << repro;
    ASSERT_TRUE(
        (*follower)->txn_manager().Write((*t)->txn(), run.a, "post", "1").ok());
    ASSERT_TRUE(
        (*follower)->txn_manager().Write((*t)->txn(), run.b, "post", "1").ok());
    EXPECT_TRUE((*t)->Commit().ok()) << repro;
  }

  // Restart the promoted node from its own directory: a normal durable
  // database by now, so it reopens standalone through the ordinary
  // Open-time recovery and must hold everything it held before.
  follower->reset();
  DatabaseOptions reopen_options = FollowerTortureOptions(&follower_env);
  reopen_options.replication = DatabaseOptions::Replication();
  auto reopened = Database::Open(reopen_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString() << "\n" << repro;
  VerifyFollower(**reopened, run, repro + " (after restart)",
                 &violation_detected);
  EXPECT_FALSE(violation_detected) << repro;
  EXPECT_EQ(ReadOne(**reopened, run.a, "post"), "1") << repro;
  EXPECT_EQ(ReadOne(**reopened, run.b, "post"), "1") << repro;
  EXPECT_EQ(ReadOne(**reopened, run.a, kBaseKey), "1") << repro;
  EXPECT_EQ(ReadOne(**reopened, run.b, kBaseKey), "1") << repro;
}

std::uint64_t TortureSeedCount() {
  const char* override = std::getenv("STREAMSI_TORTURE_SEEDS");
  if (override != nullptr) {
    const std::uint64_t n = std::strtoull(override, nullptr, 10);
    if (n > 0) return n;
  }
  return 10;  // default tier-1 budget; ci.sh sweeps more
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationFailoverTest,
                         ::testing::Range<std::uint64_t>(1,
                                                         1 + TortureSeedCount()));

// ---------------------------------------------------------------------------
// Negative control: ship a torn frame with CRC verification DISABLED on
// the follower — the applier installs the corrupted bytes, and the
// verifier above must catch the resulting divergence. The CRC-enabled arm
// refuses the same tear (the frame is treated as incomplete; nothing is
// applied). Fully deterministic: the tear is a single flipped byte in the
// last shipped frame's payload (state b's value), placed by hand.
// ---------------------------------------------------------------------------

class ShippedTearNegativeControl : public ::testing::Test {};

TEST_F(ShippedTearNegativeControl, CrcOffAppliesTearAndVerifierCatchesIt) {
  for (const bool verify_crc : {true, false}) {
    FaultEnv env(/*seed=*/1234);
    EnvFileTransport transport(&env, kFollowerDir);
    TortureRun run;
    {
      DatabaseOptions options = PrimaryTortureOptions(&env, &transport);
      options.base_dir = kPrimaryDir;
      options.replication.manual_pump = true;
      auto primary = Database::Open(options);
      ASSERT_TRUE(primary.ok());
      run.a = (*(*primary)->CreateState("a"))->id();
      run.b = (*(*primary)->CreateState("b"))->id();
      run.g = (*primary)->CreateGroup({run.a, run.b});
      ASSERT_TRUE((*primary)->Recover().ok());
      for (int i = 0; i <= 1; ++i) {
        const std::string value = std::to_string(i);
        auto t = (*primary)->Begin();
        ASSERT_TRUE(t.ok());
        ASSERT_TRUE((*primary)
                        ->txn_manager()
                        .Write((*t)->txn(), run.a, "w0", value)
                        .ok());
        ASSERT_TRUE((*primary)
                        ->txn_manager()
                        .Write((*t)->txn(), run.b, "w0", value)
                        .ok());
        ASSERT_TRUE((*t)->Commit().ok());
        run.last_acked[0] = run.last_attempted[0] = i;
      }
      ASSERT_TRUE((*primary)->ShipNow().ok());
    }
    // Tear the shipped stream: flip the LAST payload byte of the follower's
    // copy — state b's value inside the newest kReplicatedCommit record.
    // The frame stays structurally parseable; only the CRC knows.
    const std::string segment =
        std::string(kFollowerDir) + "/group_commits.log";
    std::string bytes;
    ASSERT_TRUE(env.ReadFileToString(segment, &bytes).ok());
    ASSERT_FALSE(bytes.empty());
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    ASSERT_TRUE(env.WriteStringToFileAtomic(segment, bytes).ok());

    auto follower = Database::Open(FollowerTortureOptions(
        &env, verify_crc, /*manual_pump=*/true));
    ASSERT_TRUE(follower.ok());
    ASSERT_TRUE((*follower)->ApplyShippedNow().ok());

    const std::string repro =
        std::string("negative-control verify_crc=") +
        (verify_crc ? "true" : "false");
    bool violation_detected = false;
    if (!verify_crc) {
      // The corrupted record was applied; the harness must CATCH the
      // divergence — gtest failures are expected output of the inner
      // verifier here, not of this test.
      ::testing::TestPartResultArray failures;
      {
        ::testing::ScopedFakeTestPartResultReporter reporter(
            ::testing::ScopedFakeTestPartResultReporter::
                INTERCEPT_ONLY_CURRENT_THREAD,
            &failures);
        VerifyFollower(**follower, run, repro, &violation_detected);
      }
      EXPECT_TRUE(violation_detected)
          << "harness failed to detect a torn frame applied without CRC "
             "verification\n"
          << repro;
    } else {
      // CRC on: the tear reads as an incomplete tail — refused/waited-on,
      // never applied. The follower stays consistent at the previous cut
      // (both states at "0"), so acked "1" is behind — but NOT diverged.
      EXPECT_EQ(ReadOne(**follower, run.a, "w0"),
                ReadOne(**follower, run.b, "w0"))
          << repro;
      EXPECT_EQ(ReadOne(**follower, run.a, "w0"), "0") << repro;
      EXPECT_NE((*follower)->Health().state, DatabaseHealth::kFailed)
          << repro;
    }
  }
}

}  // namespace
}  // namespace streamsi
